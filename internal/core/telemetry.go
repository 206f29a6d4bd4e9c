package core

import (
	"strconv"

	"repro/internal/telemetry"
)

// Pre-registered telemetry handles for the core pipeline (DESIGN.md §9).
// All recording is observational only: phase timers wrap existing
// wall-clock measurements, counters are atomic increments, and the loss/ε
// series are fed from values the trainer already computes — nothing here
// draws randomness or alters control flow.
var (
	telTrainPhase    = telemetry.Default.Timer("core.train.phase")
	telGeneratePhase = telemetry.Default.Timer("core.generate.phase")
	telEpsilon       = telemetry.Default.Gauge("core.train.dp_epsilon")

	// Per-chunk task time of the in-process executor, and chunks it
	// restored from a checkpoint directory instead of training.
	telChunkTrain     = telemetry.Default.Timer("core.train.chunk")
	telChunksRestored = telemetry.Default.Counter("core.train.chunks.restored")
)

// chunkSeries returns the per-chunk loss/grad-norm/ε curves, named
// core.train.chunk<N>.<metric> per the DESIGN.md §9 scheme. Series handles
// are get-or-create, so repeated runs in one process append to the same
// curves unless the registry is Reset.
func chunkSeries(chunk int) (critic, gen, grad, eps *telemetry.Series) {
	prefix := "core.train.chunk" + strconv.Itoa(chunk) + "."
	critic = telemetry.Default.Series(prefix + "critic_loss")
	gen = telemetry.Default.Series(prefix + "gen_loss")
	grad = telemetry.Default.Series(prefix + "grad_norm")
	eps = telemetry.Default.Series(prefix + "dp_epsilon")
	return
}
