package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// The serve-oneshot-overbudget corpus: oneshotDatasets snapshot datasets
// from seeds s … s+5, served by a pool whose budget is about half the
// corpus's resident size (README.md gives the measured sizes). The
// budget is fixed in bytes, so a change to the program's footprint moves
// the hit and miss counts, as it would for an operator.
const (
	oneshotDatasets = 6
	oneshotBudget   = 33 << 20
	// tinyBudget keeps the tiny self-test corpus over budget as well.
	tinyBudget = 1 << 20
	// jobsPerSecond sets the run length: seconds × jobsPerSecond jobs,
	// a fixed count so the pool's counts repeat exactly at a seed.
	jobsPerSecond = 10
	// hotShare of the jobs go to dataset 0; the rest are uniform over
	// the others.
	hotShare = 0.5
)

type oneshotState struct {
	srv      *server
	names    []string
	programs map[string]map[string]string
	refs     map[string]string
	scores   []string
	fp       string
}

// runOneshot is the serve-oneshot-overbudget workload: one closed-loop
// client submits one-shot jobs (full Restruct and EER) over six snapshot
// datasets in a seeded, skewed order, against a pool that cannot hold
// them all.
func runOneshot(b *bench) error {
	ctx := context.Background()
	st, teardown, err := setup(b, func() (*oneshotState, func(), error) { return oneshotSetup(ctx, b) })
	defer teardown()
	if err != nil {
		return err
	}
	b.checkInputs(st.fp, st.scores)
	order := accessOrder(b.cfg.seed, b.cfg.seconds*jobsPerSecond, st.names)
	before, err := st.srv.stats()
	if err != nil {
		return err
	}

	b.beginMeasure()
	var lat, traced, untraced []float64
	for i, name := range order {
		spec := jobSpec{Dataset: name, Programs: st.programs[name], Parallelism: parallelism}
		traceJob := b.rec != nil && i%2 == 1
		var pre poolStats
		if traceJob {
			if pre, err = st.srv.stats(); err != nil {
				return err
			}
		}
		ms, isTraced, err := b.servedJob(st.srv, spec, st.refs[name], i)
		b.op(err)
		if err != nil {
			continue
		}
		lat = append(lat, ms)
		if !isTraced {
			untraced = append(untraced, ms)
			continue
		}
		traced = append(traced, ms)
		post, err := st.srv.stats()
		if err != nil {
			return err
		}
		// A job missed when the pool's miss counter moved during it.
		if post.Misses > pre.Misses {
			b.sample("serve.miss_p50_ms", ms)
		} else {
			b.sample("serve.hit_p50_ms", ms)
		}
	}
	b.endMeasure(len(lat), len(lat))
	b.latency("report", lat)
	b.overhead(traced, untraced)
	b.recordSelfTimes()
	after, err := st.srv.stats()
	if err != nil {
		return err
	}
	b.poolDelta(before, after)
	return nil
}

// accessOrder is the seeded, skewed dataset sequence: hotShare of the
// jobs go to names[0], the rest uniformly to the others.
func accessOrder(seed int64, n int, names []string) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		if rng.Float64() < hotShare {
			out[i] = names[0]
		} else {
			out[i] = names[1+rng.Intn(len(names)-1)]
		}
	}
	return out
}

// oneshotSetup generates and snapshots the six datasets, computes each
// one's reference report in process and starts the server cold.
func oneshotSetup(ctx context.Context, b *bench) (*oneshotState, func(), error) {
	root := filepath.Join(b.cfg.work, "datasets")
	inDir := filepath.Join(b.cfg.work, "inputs")
	st := &oneshotState{programs: map[string]map[string]string{}, refs: map[string]string{}}
	teardown := func() {
		if st.srv != nil {
			st.srv.close()
		}
		os.RemoveAll(root)
		os.RemoveAll(inDir)
	}
	ins, err := genOneshot(b.cfg.seed, b.cfg.scale, inDir)
	if err != nil {
		return st, teardown, err
	}
	if st.fp, err = inputsFingerprint(ins); err != nil {
		return st, teardown, err
	}
	for d, in := range ins {
		name := fmt.Sprintf("ds%d", d)
		progs, err := readPrograms(in.programsDir())
		if err != nil {
			return st, teardown, err
		}
		if err := snapshotDataset(ctx, in, filepath.Join(root, name)); err != nil {
			return st, teardown, err
		}
		rep, err := b.referenceRun(ctx, filepath.Join(root, name), progs)
		if err != nil {
			return st, teardown, err
		}
		st.names = append(st.names, name)
		st.programs[name] = progs
		st.refs[name] = stripVolatile(rep.Text())
		st.scores = append(st.scores, score(rep, in.truth))
	}
	budget := int64(oneshotBudget)
	if b.cfg.scale == tinyScale {
		budget = tinyBudget
	}
	st.srv, err = startServer(root, budget)
	return st, teardown, err
}
