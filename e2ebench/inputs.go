package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dbre"
	"dbre/internal/core"
	"dbre/internal/workload"
)

// scale selects the input sizes: full for measurement, tiny for the
// self-test.
type scale int

const (
	fullScale scale = iota
	tinyScale
)

func (s scale) String() string {
	if s == tinyScale {
		return "tiny"
	}
	return "full"
}

// parallelism is the fan-out every workload asks for: the two cores of
// the machine the benchmark was sized on.
const parallelism = 2

// inputs is one generated dataset on disk: DDL, CSV extension and
// application programs, plus the generator's ground truth for scoring.
type inputs struct {
	dir    string // holds schema.sql, data/ and programs/
	truth  workload.GroundTruth
	tuples int
	spec   workload.Spec
}

func (in *inputs) schema() string            { return filepath.Join(in.dir, "schema.sql") }
func (in *inputs) data() string              { return filepath.Join(in.dir, "data") }
func (in *inputs) programsDir() string       { return filepath.Join(in.dir, "programs") }
func (in *inputs) csvPath(rel string) string { return filepath.Join(in.data(), rel+".csv") }

// generate builds the seeded workload in memory with the internal
// generator and writes it to dir as the files the program consumes. The
// in-memory database is dropped: the program sees only the files.
func generate(spec workload.Spec, dir string) (*inputs, error) {
	w, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, truth: w.Truth, tuples: w.DB.TotalRows(), spec: spec}
	if err := os.WriteFile(in.schema(), []byte(w.DB.Catalog().DDL()+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := dbre.StoreCSVDirCtx(context.Background(), w.DB, in.data(), parallelism); err != nil {
		return nil, err
	}
	for name, src := range w.Programs {
		path := filepath.Join(in.programsDir(), name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// readPrograms loads the program files back from disk (name → source),
// the form a job submission carries them in.
func readPrograms(dir string) (map[string]string, error) {
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(src)
		return nil
	})
	return out, err
}

// fingerprint hashes the generated DDL, CSV and program files of the
// given input directories (path and bytes, in path order). Snapshot
// bytes are left out: they are the program's output, not its input.
func fingerprint(dirs ...string) (string, error) {
	h := sha256.New()
	for _, root := range dirs {
		var files []string
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			files = append(files, path)
			return nil
		})
		if err != nil {
			return "", err
		}
		sort.Strings(files)
		for _, path := range files {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return "", err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// The workload shapes. README.md gives the reasons for each size.

// cliSpec is the dbgen default shape at 100 000 rows per fact with 1%
// dangling foreign keys.
func cliSpec(seed int64, sc scale) workload.Spec {
	s := workload.DefaultSpec(seed)
	s.FactRows = 100_000
	if sc == tinyScale {
		s.FactRows = 2_000
	}
	s.Corruption = 0.01
	return s
}

// warmSpec is the wide, short, clean schema of serve-warm-rw.
func warmSpec(seed int64, sc scale) workload.Spec {
	s := workload.DefaultSpec(seed)
	s.Dimensions = 12
	s.Facts = 8
	s.FKsPerFact = 4
	s.FactRows = 12_500
	if sc == tinyScale {
		s.FactRows = 500
	}
	s.CompositeDims = 2
	s.EmbedProb = 0.1
	return s
}

// oneshotSpec is one of the six datasets of serve-oneshot-overbudget.
func oneshotSpec(seed int64, sc scale) workload.Spec {
	s := workload.DefaultSpec(seed)
	s.FactRows = 25_000
	if sc == tinyScale {
		s.FactRows = 1_000
	}
	s.CompositeDims = 2
	s.EmbedProb = 0.1
	s.Corruption = 0.01
	return s
}

// The structural profile each workload's datasets are drawn with. The
// generator decides per seed how many links are denormalized, into which
// facts, and which dimensions are dropped, and those decisions alone move
// a report's cost by a factor of three (restructuring is linear in the
// planted FDs and in the width of the facts they split). So every seed of
// a workload uses a generator seed whose plan is the same: the seed varies
// which relations are linked and every data value, not how much work the
// pipeline has. The profiles are common plans (0.9%, 16% and 36% of
// generator seeds); README.md gives their reasons.
const (
	cliProfile     = "embedded=6 dropped=2 fds=6 hidden=2 inds=10 facts=21,20,11,10"
	warmProfile    = "embedded=3 dropped=0 fds=3 hidden=0 inds=32 facts=10,10,10,00,00,00,00,00"
	oneshotProfile = "embedded=1 dropped=0 fds=1 hidden=0 inds=12 facts=10,00,00,00"
)

// seedsPerSeed is how many generator seeds generatorSeed searches per
// benchmark seed; a profile that 0.9% of seeds have is missed with
// probability below 1e-19.
const seedsPerSeed = 5000

// plan summarizes a spec's structural plan: links denormalized and
// dropped, the planted dependencies, and per fact (in descending order)
// its embedded and dropped links. The plan is drawn before any data, so
// it is read off a generation with one row per relation.
func plan(spec workload.Spec) (string, error) {
	spec.FactRows = 1
	spec.DimensionRows = 1
	w, err := workload.Generate(spec)
	if err != nil {
		return "", err
	}
	emb, drop := 0, 0
	perFact := map[string][2]int{}
	for _, l := range w.Truth.Links {
		p := perFact[l.Fact]
		if l.Embedded {
			emb++
			p[0]++
		}
		if l.Dropped {
			drop++
			p[1]++
		}
		perFact[l.Fact] = p
	}
	facts := make([]string, 0, len(perFact))
	for _, p := range perFact {
		facts = append(facts, fmt.Sprintf("%d%d", p[0], p[1]))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(facts)))
	return fmt.Sprintf("embedded=%d dropped=%d fds=%d hidden=%d inds=%d facts=%s",
		emb, drop, len(w.Truth.ExpectedFDs), len(w.Truth.HiddenRefs), len(w.Truth.ExpectedINDs),
		strings.Join(facts, ",")), nil
}

// generatorSeed maps a benchmark seed to the first generator seed in
// [seed·seedsPerSeed, (seed+1)·seedsPerSeed) whose plan is profile.
// Distinct benchmark seeds search disjoint ranges, so they never share
// inputs.
func generatorSeed(seed int64, profile string, spec func(int64) workload.Spec) (int64, error) {
	for g := seed * seedsPerSeed; g < (seed+1)*seedsPerSeed; g++ {
		p, err := plan(spec(g))
		if err != nil {
			return 0, err
		}
		if p == profile {
			return g, nil
		}
	}
	return 0, fmt.Errorf("no generator seed for seed %d has the plan %q", seed, profile)
}

// generateProfiled generates the dataset for a benchmark seed with the
// given profile.
func generateProfiled(seed int64, sc scale, profile string, spec func(int64, scale) workload.Spec, dir string) (*inputs, error) {
	g, err := generatorSeed(seed, profile, func(g int64) workload.Spec { return spec(g, sc) })
	if err != nil {
		return nil, err
	}
	return generate(spec(g, sc), dir)
}

// pinned is what pins.json records for one workload, scale and seed: the
// input fingerprint and each dataset's ground-truth score.
type pinned struct {
	Fingerprint string   `json:"fingerprint"`
	Scores      []string `json:"scores"`
}

// pinFile is the layout of pins.json.
type pinFile struct {
	// DefaultSeed is --seed's default; SelftestSeed is the second seed
	// the self-test and the generator canary use.
	DefaultSeed  int64             `json:"default_seed"`
	SelftestSeed int64             `json:"selftest_seed"`
	Inputs       map[string]pinned `json:"inputs"`
}

//go:embed pins.json
var pinsJSON []byte

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("pins.json: " + err.Error()) // embedded at build time
	}
	return p
}()

func pinKey(workload string, sc scale, seed int64) string {
	return workload + "/" + sc.String() + "/" + strconv.FormatInt(seed, 10)
}

// checkInputs compares a run's fingerprint and ground-truth scores with
// the values pinned for its workload, scale and seed. A mismatch fails
// the run: the generator or the program changed what the baseline
// measures. An unpinned seed is noted, not failed.
func (b *bench) checkInputs(fp string, scores []string) {
	b.fp, b.scores = fp, scores
	key := pinKey(b.cfg.workload, b.cfg.scale, b.cfg.seed)
	p, ok := pins.Inputs[key]
	if !ok {
		b.note("seed %d is not pinned for %s; fingerprint %s", b.cfg.seed, b.cfg.workload, fp)
		return
	}
	if p.Fingerprint != fp {
		b.invalid("input fingerprint %s differs from the value %s pinned for %s: the generator changed", fp, p.Fingerprint, key)
	}
	if !slices.Equal(p.Scores, scores) {
		b.invalid("ground-truth scores %q differ from the values %q pinned for %s", scores, p.Scores, key)
	}
}

// score evaluates a report against the generator's ground truth.
func score(rep *dbre.Report, truth workload.GroundTruth) string {
	return core.Evaluate(rep, truth).String()
}

// pinSeed runs the workload once (its oracles must pass) and records its
// input fingerprint and ground-truth scores for cfg's seed and scale into
// the pins file at path.
func pinSeed(cfg config, wl workloadDef, path string) error {
	b, err := runWorkload(cfg, wl)
	if err != nil {
		return err
	}
	if out := b.output(); out.Failed > 0 || b.fp == "" {
		return fmt.Errorf("not pinning a failing run: %v", b.failures)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if p.Inputs == nil {
		p.Inputs = map[string]pinned{}
	}
	p.Inputs[pinKey(cfg.workload, cfg.scale, cfg.seed)] = pinned{Fingerprint: b.fp, Scores: b.scores}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
