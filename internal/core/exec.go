package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/dgan"
)

// Executor runs a training plan's chunk tasks in this process: the seed
// task, then the fine-tune tasks warm-started from its bytes
// (concurrently under Config.Parallel). The zero value trains in memory.
//
// With Dir set, every finished chunk is made durable there as a
// container chunk record (container.WriteChunk) carrying the plan's
// digest, and a failed write fails the run. Resume restores recorded
// chunks instead of retraining them: a record of a different plan is an
// error, and a record whose payload is missing or corrupt is retrained,
// which reproduces it bit for bit. A resumed run therefore assembles the
// same models as an uninterrupted one.
//
// There are no in-process retries: every error a chunk task returns is a
// deterministic validation error that a retry would replay. Re-running
// crashed work is the job of Resume here and of the cluster queue's
// lease budget across processes.
type Executor struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Resume restores the chunks recorded in Dir.
	Resume bool
	// Progress, when non-nil, observes each chunk starting to train
	// (done=false) and its model becoming available (done=true); a
	// restored chunk reports only done. Fine-tune chunks may report
	// concurrently.
	Progress func(chunk int, done bool)

	// fs is the filesystem chunk records are written through (default
	// container.OSFS); tests inject failing writes.
	fs container.FS
	// afterChunk, when non-nil, is called once chunk idx's record is
	// durable; a non-nil error stops the run the way a crash would.
	afterChunk func(idx int) error
}

// run executes every chunk task of p and returns the chunk models, ready
// for generation, with the run's Stats. Trained models stay in memory; a
// model crosses the byte boundary only to be checkpointed or restored,
// which yields the same weights.
func (ex *Executor) run(p *chunkPlan) ([]*dgan.Model, Stats, error) {
	defer telTrainPhase.Start().Stop()
	start := time.Now()
	n := p.Chunks()
	st := Stats{
		Epsilon:         p.epsilon(),
		ChunkSamples:    p.ChunkSampleCounts(),
		ChunkResumed:    make([]bool, n),
		ChunkCriticLoss: make([]float64, n),
		ChunkGenLoss:    make([]float64, n),
	}
	digest, err := ex.prepare(p)
	if err != nil {
		return nil, st, err
	}
	models := make([]*dgan.Model, n)
	times := make([]time.Duration, n)
	// task runs chunk i; tasks touch only index i of the shared slices,
	// and fine-tunes only read the seed model.
	task := func(i int) error {
		if ex.Resume {
			m, err := ex.restore(i, digest)
			if err != nil {
				return err
			}
			if m != nil {
				models[i], st.ChunkResumed[i] = m, true
				telChunksRestored.Inc()
				ex.progress(i, true)
				return nil
			}
		}
		ex.progress(i, false)
		t0 := time.Now()
		var loss chunkLoss
		var m *dgan.Model
		var err error
		if i == 0 {
			m, err = p.trainSeed(&loss)
		} else {
			m, err = p.fineTune(i, models[0], &loss)
		}
		times[i] = time.Since(t0)
		telChunkTrain.Observe(times[i])
		if err != nil {
			return fmt.Errorf("core: train chunk %d: %w", i, err)
		}
		st.ChunkCriticLoss[i], st.ChunkGenLoss[i] = loss.critic, loss.gen
		if err := ex.save(i, m, digest); err != nil {
			return err
		}
		models[i] = m
		ex.progress(i, true)
		return nil
	}

	if err := task(0); err != nil {
		return nil, st, err
	}
	// Once a fine-tune fails, the tasks not yet started are skipped.
	errs := make([]error, n)
	var failed atomic.Bool
	forEachChunk(p.cfg, n-1, func(j int) {
		if failed.Load() {
			return
		}
		if errs[j+1] = task(j + 1); errs[j+1] != nil {
			failed.Store(true)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, st, err
	}
	p.finish(models)
	for _, d := range times {
		st.CPUTime += d
	}
	st.SeedTime = times[0]
	st.WallTime = time.Since(start)
	if p.cfg.DP != nil {
		telEpsilon.Set(st.Epsilon)
	}
	return models, st, nil
}

// prepare readies the checkpoint directory and returns the digest chunk
// records carry ("" without a directory). A fresh run first removes the
// done records an earlier run left, so a later resume cannot mix them in.
func (ex *Executor) prepare(p *chunkPlan) (string, error) {
	if ex.Dir == "" {
		if ex.Resume {
			return "", fmt.Errorf("core: Resume requires a checkpoint directory")
		}
		return "", nil
	}
	if ex.fs == nil {
		ex.fs = container.OSFS{}
	}
	if err := os.MkdirAll(ex.Dir, 0o755); err != nil {
		return "", fmt.Errorf("core: create checkpoint dir: %w", err)
	}
	if !ex.Resume {
		for i := 0; i < p.Chunks(); i++ {
			err := ex.fs.Remove(container.ChunkBase(ex.Dir, i) + ".done")
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				return "", fmt.Errorf("core: clear checkpoint dir: %w", err)
			}
		}
	}
	return p.digest(), nil
}

// restore returns chunk i's recorded model, or nil when the chunk must be
// trained: it has no record, or its payload is missing or corrupt.
func (ex *Executor) restore(i int, digest string) (*dgan.Model, error) {
	rec, payload, err := container.ReadChunk(container.ChunkBase(ex.Dir, i))
	if rec != (container.ChunkRecord{}) && rec.Digest != digest {
		return nil, fmt.Errorf("core: %s holds chunk %d of a different training plan (configuration, seed or input changed); resume with the original inputs or train without resume", ex.Dir, i)
	}
	if err != nil {
		return nil, nil
	}
	m, err := dgan.DecodeModel(payload)
	if err != nil {
		return nil, fmt.Errorf("core: decode checkpointed chunk %d: %w", i, err)
	}
	return m, nil
}

// save makes chunk i durable when checkpointing.
func (ex *Executor) save(i int, m *dgan.Model, digest string) error {
	if ex.Dir == "" {
		return nil
	}
	payload, err := m.Encode()
	if err != nil {
		return fmt.Errorf("core: encode chunk %d: %w", i, err)
	}
	rec := container.ChunkRecord{Digest: digest}
	if err := container.WriteChunk(ex.fs, container.ChunkBase(ex.Dir, i), payload, rec); err != nil {
		return fmt.Errorf("core: checkpoint chunk %d: %w", i, err)
	}
	if ex.afterChunk != nil {
		return ex.afterChunk(i)
	}
	return nil
}

func (ex *Executor) progress(i int, done bool) {
	if ex.Progress != nil {
		ex.Progress(i, done)
	}
}
