package dbre

import (
	"fmt"
	"math/rand"
	"testing"

	"dbre/internal/stats"
	"dbre/internal/workload"
)

// TestReverseEquivalenceCachedParallel completes the differential harness
// (internal/stats/differential_test.go) at the public API: random
// workloads run through Reverse itself — program scanning included — in
// reference mode (no statistics cache, serial) and in cached/parallel
// mode. Reports must match byte for byte (timings aside), and so must the
// complete audit log of expert consultations: the cache and the worker
// pool may reorganize the counting, but never what the expert is asked,
// in what order, or what the method concludes.
func TestReverseEquivalenceCachedParallel(t *testing.T) {
	runs := 100
	if testing.Short() {
		runs = 20
	}
	rng := rand.New(rand.NewSource(0xd1ff))
	for i := 0; i < runs; i++ {
		dims := 2 + rng.Intn(4)
		spec := workload.Spec{
			Seed:              int64(9000 + i),
			Dimensions:        dims,
			Facts:             1 + rng.Intn(2),
			FKsPerFact:        1 + rng.Intn(dims),
			AttrsPerDimension: 1 + rng.Intn(3),
			DimensionRows:     20 + rng.Intn(30),
			FactRows:          50 + rng.Intn(150),
			EmbedProb:         rng.Float64(),
			DropProb:          rng.Float64() * 0.4,
			ProgramsPerJoin:   1 + rng.Intn(2),
		}
		if rng.Intn(4) == 0 {
			spec.CompositeDims = 1
		}
		workers := 2 + rng.Intn(7)
		t.Run(fmt.Sprintf("workload%03d", i), func(t *testing.T) {
			// Two copies of the same extension: the reference run counts
			// by direct serial scans over decoded values, the
			// cached/parallel run by projections over the code vectors,
			// so identical reports certify the two counting algorithms
			// against each other at the public API.
			ref, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}

			refExpert := RecordingExpert(AutoExpert())
			refRep, err := Reverse(ref.DB, ref.Programs, Options{
				Oracle:            refExpert,
				TransitiveClosure: true,
				NoStatsCache:      true,
			})
			if err != nil {
				t.Fatalf("reference Reverse: %v", err)
			}

			cachedExpert := RecordingExpert(AutoExpert())
			cache := stats.NewCache(cached.DB)
			cachedRep, err := Reverse(cached.DB, cached.Programs, Options{
				Oracle:            cachedExpert,
				TransitiveClosure: true,
				Parallelism:       workers,
				Stats:             cache,
			})
			if err != nil {
				t.Fatalf("cached Reverse: %v", err)
			}

			if a, b := stripTimings(refRep.Text()), stripTimings(cachedRep.Text()); a != b {
				t.Errorf("spec %+v (workers=%d): reports diverged\nreference:\n%s\ncached/parallel:\n%s", spec, workers, a, b)
			}
			if refRep.EER.DOT() != cachedRep.EER.DOT() {
				t.Errorf("spec %+v: EER schemas diverged", spec)
			}

			// The expert must have been consulted identically: same
			// questions, same order, same answers.
			if len(refExpert.Log) != len(cachedExpert.Log) {
				t.Fatalf("expert consulted %d times in reference, %d in cached mode", len(refExpert.Log), len(cachedExpert.Log))
			}
			for j := range refExpert.Log {
				if refExpert.Log[j] != cachedExpert.Log[j] {
					t.Errorf("expert consultation %d diverged:\n  reference: %s\n  cached:    %s", j, refExpert.Log[j], cachedExpert.Log[j])
				}
			}
		})
	}
}
