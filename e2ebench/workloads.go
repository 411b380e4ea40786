package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	run func(b *bench) error
	// gen generates the workload's inputs for a seed and scale under
	// dir, one entry per dataset.
	gen func(seed int64, sc scale, dir string) ([]*inputs, error)
}

// workloads are the benchmark's workloads by name; README.md gives the
// reasons and sizes.
var workloads = map[string]workloadDef{
	"cli-csv": {
		run: runCLI,
		gen: genCLI,
	},
	"serve-warm-rw": {
		run: runWarm,
		gen: genWarm,
	},
	"serve-oneshot-overbudget": {
		run: runOneshot,
		gen: genOneshot,
	},
}

func genCLI(seed int64, sc scale, dir string) ([]*inputs, error) {
	in, err := generateProfiled(seed, sc, cliProfile, cliSpec, filepath.Join(dir, "cli"))
	return []*inputs{in}, err
}

func genWarm(seed int64, sc scale, dir string) ([]*inputs, error) {
	in, err := generateProfiled(seed, sc, warmProfile, warmSpec, filepath.Join(dir, "w"))
	return []*inputs{in}, err
}

// genOneshot generates the corpus: datasets ds0 … ds5 from seeds s … s+5.
func genOneshot(seed int64, sc scale, dir string) ([]*inputs, error) {
	var out []*inputs
	for d := 0; d < oneshotDatasets; d++ {
		in, err := generateProfiled(seed+int64(d), sc, oneshotProfile, oneshotSpec, filepath.Join(dir, fmt.Sprintf("ds%d", d)))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputsFingerprint hashes every dataset's generated files.
func inputsFingerprint(ins []*inputs) (string, error) {
	dirs := make([]string, len(ins))
	for i, in := range ins {
		dirs[i] = in.dir
	}
	return fingerprint(dirs...)
}

// checkCanary regenerates the workload's tiny inputs for the self-test
// seed and compares their fingerprint with its pin, so a generator change
// fails every run loudly even when the run's own seed is unpinned.
func (b *bench) checkCanary(wl workloadDef) error {
	key := pinKey(b.cfg.workload, tinyScale, pins.SelftestSeed)
	p, ok := pins.Inputs[key]
	if !ok {
		b.note("no canary pinned for %s", key)
		return nil
	}
	dir := filepath.Join(b.cfg.work, "canary")
	defer os.RemoveAll(dir)
	ins, err := wl.gen(pins.SelftestSeed, tinyScale, dir)
	if err != nil {
		return err
	}
	fp, err := inputsFingerprint(ins)
	if err != nil {
		return err
	}
	if fp != p.Fingerprint {
		b.invalid("generator canary %s: fingerprint %s, pinned %s", key, fp, p.Fingerprint)
	}
	return nil
}
