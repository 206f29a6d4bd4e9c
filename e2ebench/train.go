package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ip2vec"
	"repro/internal/trace"
)

// runTrain is the paper's Fig. 4 measurement: chunked training of the flow
// synthesizer on UGR16 with a CAIDA public corpus for the port embedding,
// then a synthetic trace the size of the input, generated and scored. It
// never touches the registry, HTTP, ingest or the store.
//
// One op is one training; its work units are the input's records.
func runTrain(r *run) error {
	type env struct {
		real   *trace.FlowTrace
		public *trace.PacketTrace
	}
	e, err := timeSetups(r, func() (env, error) {
		return env{
			real:   datasets.UGR16(r.p.trainRecords, r.seed),
			public: datasets.CAIDAChicago(r.p.publicPackets, r.seed+1),
		}, nil
	}, func(env) {})
	if err != nil {
		return err
	}
	cfg := r.p.trainCfg
	cfg.Seed = r.seed

	if r.tr != nil {
		// The embedding fit runs inside PlanFlowTraining; re-running it on
		// the same corpus and config shows its share of preparation.
		fit := r.tr.root("ip2vec.fit", 0)
		if _, err := ip2vec.Train(ip2vec.PacketSentences(e.public), portEmbedConfig(cfg)); err != nil {
			return fmt.Errorf("ip2vec fit: %w", err)
		}
		r.setLayer("ip2vec.fit_s", fit.end().Seconds())
	}

	var (
		walls, cpus, prepare, seedChunk, ftSum, ftMax, assemble, fanout, genMS []float64
		digest                                                                 *[32]byte
		records                                                                float64
		fidelity                                                               conformance.Report
	)
	n := len(e.real.Records)
	before := r.beginPhase()
	deadline := time.Now().Add(time.Duration(r.p.seconds * float64(time.Second)))
	for i := int64(1); i == 1 || time.Now().Before(deadline); i++ {
		c0 := cpuTime()
		op := r.tr.root("op.train", i)
		var syn *core.FlowSynthesizer
		var ph trainPhases
		if r.tr != nil {
			syn, ph, err = trainByPlan(op, e.real, e.public, cfg)
		} else {
			syn, err = core.TrainFlowSynthesizer(e.real, e.public, cfg)
		}
		wall := op.end()
		cpu := cpuTime() - c0
		if err != nil {
			r.check(fmt.Errorf("train %d: %w", i, err))
			continue
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		if r.tr != nil {
			prepare = append(prepare, ph.prepare)
			seedChunk = append(seedChunk, ph.seed)
			ftSum = append(ftSum, sum(ph.finetune))
			ftMax = append(ftMax, maxOf(ph.finetune))
			assemble = append(assemble, ph.assemble)
			workers := float64(min(runtime.NumCPU(), cfg.Chunks-1))
			fanout = append(fanout, ratio(ph.fanoutCPU, ph.fanoutWall*workers))
		}

		g := r.tr.root("core.generate", i)
		gen := syn.Generate(n)
		genMS = append(genMS, ms(g.end()))
		records += float64(len(gen.Records))
		fidelity = conformance.FlowReport(e.real, gen)
		r.check(checkTrainOutput(gen, n, i, &digest))
	}
	after := r.endPhase()
	if len(walls) == 0 {
		return fmt.Errorf("no training succeeded")
	}

	med := median(walls)
	r.setE2E("work_per_s", float64(n)/med)
	r.setE2E("cpu_ms_per_unit", 1000*median(cpus)/float64(n))
	r.setE2E("p50_ms", 1000*med)
	r.setE2E("tail_ms", 1000*maxOf(walls))
	r.note("tail_percentile", "max")
	r.note("train_wall_s", walls)
	r.note("train_cpu_s", cpus)
	jsd, emd := meanField(fidelity.JSD), meanField(fidelity.EMD)
	r.note("fidelity_jsd", jsd)
	r.note("fidelity_emd", emd)

	r.recordCounters(before, after, records)
	r.setLayer("conformance.fidelity_jsd", jsd)
	r.setLayer("conformance.fidelity_emd", emd)
	r.setLayer("core.generate_ms", median(genMS))
	if r.tr != nil {
		r.setLayer("core.prepare_s", median(prepare))
		r.setLayer("core.seed_chunk_s", median(seedChunk))
		r.setLayer("core.finetune_chunk_s.sum", median(ftSum))
		r.setLayer("core.finetune_chunk_s.max", median(ftMax))
		r.setLayer("core.assemble_s", median(assemble))
		r.setLayer("orchestrator.fanout_eff", median(fanout))
		steps := r.layer["dgan.train.steps"]
		r.setLayer("dgan.step_ms", ratio(1000*(sum(seedChunk)+sum(ftSum)), steps))
	}
	return nil
}

// portEmbedConfig is the IP2Vec configuration core uses for the port
// embedding.
func portEmbedConfig(cfg core.Config) ip2vec.Config {
	c := ip2vec.DefaultConfig()
	c.Dim, c.Epochs, c.Seed = cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed
	return c
}

// trainPhases are one traced training's phase times in seconds, and the
// process CPU time spent while the fine-tune chunks fanned out.
type trainPhases struct {
	prepare, seed, assemble float64
	finetune                []float64
	fanoutWall, fanoutCPU   float64
}

// trainByPlan trains through the public Plan API, one span per phase, with
// the fine-tune chunks fanned out concurrently the way standalone training
// does. The result is bitwise identical to core.TrainFlowSynthesizer.
func trainByPlan(op *active, real *trace.FlowTrace, public *trace.PacketTrace, cfg core.Config) (*core.FlowSynthesizer, trainPhases, error) {
	var ph trainPhases
	s := op.child("core.prepare")
	plan, err := core.PlanFlowTraining(real, public, cfg)
	ph.prepare = s.end().Seconds()
	if err != nil {
		return nil, ph, err
	}
	encoded := make([][]byte, plan.Chunks())
	s = op.child("core.seed_chunk")
	encoded[0], err = plan.TrainSeedChunk()
	ph.seed = s.end().Seconds()
	if err != nil {
		return nil, ph, err
	}
	ph.finetune = make([]float64, plan.Chunks()-1)
	errs := make([]error, plan.Chunks())
	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for i := 1; i < plan.Chunks(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := op.child("core.finetune_chunk")
			encoded[i], errs[i] = plan.FineTuneChunk(i, encoded[0])
			ph.finetune[i-1] = s.end().Seconds()
		}(i)
	}
	wg.Wait()
	ph.fanoutWall, ph.fanoutCPU = time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, ph, err
		}
	}
	s = op.child("core.assemble")
	syn, err := plan.Assemble(encoded)
	ph.assemble = s.end().Seconds()
	return syn, ph, err
}

// checkTrainOutput checks one synthetic trace: the requested size, valid
// records, and (training being bitwise deterministic for a fixed seed) the
// same bytes as the run's first trace, whose digest it keeps in *first.
func checkTrainOutput(gen *trace.FlowTrace, n int, iter int64, first **[32]byte) error {
	if len(gen.Records) != n {
		return fmt.Errorf("train %d: generated %d records, want %d", iter, len(gen.Records), n)
	}
	if v := conformance.FlowViolations(gen); len(v) > 0 {
		return fmt.Errorf("train %d: invalid records: %v", iter, v[0])
	}
	var buf bytes.Buffer
	if err := trace.WriteFlowCSV(&buf, gen); err != nil {
		return fmt.Errorf("train %d: encode: %w", iter, err)
	}
	d := sha256.Sum256(buf.Bytes())
	if *first == nil {
		*first = &d
	} else if d != **first {
		return fmt.Errorf("train %d: synthetic trace differs from the first training's (not deterministic)", iter)
	}
	return nil
}

func meanField(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return ratio(t, float64(len(m)))
}
