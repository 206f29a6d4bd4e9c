package dgan

import "repro/internal/telemetry"

// Pre-registered telemetry handles (DESIGN.md §9). Recording is strictly
// observational — none of these calls touch an RNG or the output — and
// each is a single atomic op on the generation hot path. dgan.generate.*
// counts the exact mode's lots and dgan.infer.* the fast mode's.
var (
	telSteps = telemetry.Default.Counter("dgan.train.steps")
	exactTel = lotTel{
		lots:       telemetry.Default.Counter("dgan.generate.lots"),
		samples:    telemetry.Default.Counter("dgan.generate.samples"),
		stepsSaved: telemetry.Default.Counter("dgan.generate.steps_saved"),
		depth: telemetry.Default.Histogram("dgan.generate.unroll_depth",
			telemetry.ExpBuckets(1, 2, 12)),
	}
	inferTel = lotTel{
		lots:    telemetry.Default.Counter("dgan.infer.lots"),
		samples: telemetry.Default.Counter("dgan.infer.samples"),
	}
)
