package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// Run shape. Every constant here is part of the benchmark's definition:
// changing one changes what the benchmark measures.
const (
	// setupPasses is how many times set-up runs; setup_s is the median.
	setupPasses = 5
	// minRounds is the fewest timed rounds a run makes, however long a
	// round takes.
	minRounds = 3
	// resubmitQuantile is the reported tail percentile, and tailSamples
	// how many samples must lie beyond it; the timed loop runs until the
	// run has enough resubmits for that.
	resubmitQuantile = 0.9
	tailSamples      = 10
)

// roundStat is one timed round: a cold pass over the workload's grid
// through a fresh cache layer, then warm resubmits of the same grid.
type roundStat struct {
	wall      float64 // the cold pass plus the resubmits, checks excluded
	coldWall  float64 // the cold pass, the only part that simulates
	points    int     // points completed by the cold pass
	simCycles int64   // Σ TotalCycles of the points the cold pass simulated
	hits      int     // cold-pass points served by the cache layer
	resubmits []float64
	alloc     uint64 // bytes allocated during the round
	fp        string

	bisectProbes int
	bisectCycles int64
}

// workload is one benchmark workload. round runs one timed round and
// owns any service it needs: a round starts it on a fresh store before
// its clock starts and stops it after.
type workload struct {
	// width is how many points the workload simulates at once.
	width int
	// grid is the cold pass's points.
	grid func(b *bench) ([]core.Config, error)
	// start brings up the workload's service once, for set-up timing;
	// nil for the in-process workloads.
	start func(b *bench) (*service, error)
	round func(b *bench) (roundStat, error)
	// reference, when set, computes the same grid in-process after the
	// timed region; its fingerprint must equal every round's.
	reference func(b *bench) (fp string, err error)
}

// bench is one benchmark invocation.
type bench struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	work    string // scratch directory, inside the checkout
	log     io.Writer

	grid  []core.Config
	width int     // the workload's width
	tr    *tracer // non-nil only while the traced rounds run

	attempted, failed atomic.Int64
	problems          []string
	layer             map[string]float64

	// pointParent is the span point runners hang their spans under.
	pointParent atomic.Pointer[ref]
	jobs        int

	front *frontDoor // the loopback HTTP listener of the serving workloads
	setup setupStat

	// Traced-run material: per-call samples of the layer probes and the
	// cold outcomes of the last traced round.
	sampled  map[string][]float64
	coldOuts []sweep.Outcome
}

func newBench(name string, seed int64, seconds float64, traced bool, work string, log io.Writer) (*bench, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return nil, err
	}
	return &bench{name: name, seed: seed, seconds: seconds, traced: traced, work: dir, log: log,
		layer: map[string]float64{}, sampled: map[string][]float64{}}, nil
}

func (b *bench) close() {
	if b.front != nil {
		b.front.close()
	}
	os.RemoveAll(b.work)
}

// fail records a failed check.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// checkFP compares a fingerprint against the first one of the run.
func (b *bench) checkFP(what, got, want string) {
	b.attempted.Add(1)
	if got != want {
		b.fail("%s fingerprint %s, want %s", what, short(got), short(want))
	}
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// pointRunner is the sweep Runner seam: core.Run, plus a span per point
// when traced.
func (b *bench) pointRunner() func(core.Config) (core.Result, error) {
	return func(c core.Config) (core.Result, error) {
		if b.tr == nil {
			return core.Run(c)
		}
		var parent ref
		if p := b.pointParent.Load(); p != nil {
			parent = *p
		}
		_, end := b.tr.begin(parent, "sweep.point", "")
		defer end()
		return core.Run(c)
	}
}

func (b *bench) setPointParent(r ref) { b.pointParent.Store(&r) }

// nextJob names the next traced job: the id its spans share.
func (b *bench) nextJob(kind string) string {
	b.jobs++
	return fmt.Sprintf("%s-%d", kind, b.jobs)
}

func (b *bench) samples(name string, x float64) { b.sampled[name] = append(b.sampled[name], x) }

type setupStat struct {
	times    []float64
	routingS []float64
	tableS   []float64
	entries  int
	openS    []float64
	coreWarm float64
}

// doSetup times setupPasses set-up passes. Each builds every distinct
// structure of the workload once and, for the serving workloads, opens a
// store on an empty directory, starts the server (and workers) and waits
// for a healthy answer. The first pass builds through one-message
// core.Runs, which also fills core's per-process structure cache so the
// timed rounds reuse it; the others call the same layer constructors
// directly, since core builds a structure only once per process.
func (b *bench) doSetup(w workload, structs []core.Config) error {
	for pass := 0; pass < setupPasses; pass++ {
		runtime.GC() // every pass starts from a collected heap
		t0 := time.Now()
		var rS, tS float64
		entries := 0
		for _, c := range structs {
			if pass == 0 {
				one := c
				one.Warmup, one.Measure = 0, 1
				if _, err := core.Run(one); err != nil {
					return fmt.Errorf("building %s: %w", structureKey(c), err)
				}
				continue
			}
			bl, err := buildStructure(c)
			if err != nil {
				return err
			}
			rS += bl.routingS
			tS += bl.tableS
			entries += bl.entries
		}
		if pass == 0 {
			b.setup.coreWarm = time.Since(t0).Seconds()
		} else {
			b.setup.routingS = append(b.setup.routingS, rS)
			b.setup.tableS = append(b.setup.tableS, tS)
			b.setup.entries = entries
		}
		if w.start != nil {
			svc, err := w.start(b)
			if err != nil {
				return err
			}
			b.setup.openS = append(b.setup.openS, svc.openS)
			svc.stop()
		}
		b.setup.times = append(b.setup.times, time.Since(t0).Seconds())
	}
	return nil
}

// loop runs timed rounds for seconds, and past that until minRounds
// rounds and enough resubmit samples for the tail percentile.
func (b *bench) loop(w workload, seconds float64) ([]roundStat, error) {
	need := minSamplesFor(resubmitQuantile, tailSamples)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rs []roundStat
	samples := 0
	for len(rs) < minRounds || samples < need || time.Now().Before(deadline) {
		// Every round starts from a collected heap, so one round's garbage
		// does not land on the next round's clock.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := w.round(b)
		if err != nil {
			return rs, err
		}
		runtime.ReadMemStats(&m1)
		r.alloc = m1.TotalAlloc - m0.TotalAlloc
		if len(rs) > 0 {
			b.checkFP(fmt.Sprintf("round %d", len(rs)), r.fp, rs[0].fp)
		}
		samples += len(r.resubmits)
		rs = append(rs, r)
	}
	return rs, nil
}

// execute runs set-up, the timed rounds (untraced, then traced when
// requested), the output checks, and assembles the report.
func (b *bench) execute(w workload, p pins) (report, error) {
	grid, err := w.grid(b)
	if err != nil {
		return report{}, err
	}
	b.grid, b.width = grid, w.width
	if err := b.doSetup(w, distinctStructures(grid)); err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	// A traced run splits its time between untraced and traced rounds,
	// so it takes as long as an untraced one and still gives the tracing
	// overhead.
	secs := b.seconds
	if b.traced {
		secs /= 2
	}
	rs, err := b.loop(w, secs)
	if err != nil {
		return report{}, err
	}
	var traced []roundStat
	if b.traced {
		b.tr = newTracer()
		if traced, err = b.loop(w, secs); err != nil {
			return report{}, err
		}
	}
	fp := rs[0].fp
	var walls []float64
	for _, r := range rs {
		walls = append(walls, r.wall)
	}
	q1, q3 := quartiles(walls)
	fmt.Fprintf(b.log, "perfbench: %s seed %d fingerprint %s; %d rounds, round time q1 %.4g median %.4g q3 %.4g s; set-up passes %.4g s\n",
		b.name, b.seed, fp, len(rs), q1, median(walls), q3, b.setup.times)
	if len(traced) > 0 {
		b.checkFP("traced round", traced[0].fp, fp)
	}
	if want, ok := p.lookup(b.name, b.seed); ok {
		b.checkFP("pinned", fp, want)
	}
	if w.reference != nil {
		refFP, err := w.reference(b)
		if err != nil {
			return report{}, fmt.Errorf("in-process reference: %w", err)
		}
		b.checkFP("in-process reference", fp, refFP)
	}
	rep := report{Metrics: map[string]metricValue{}}
	var values map[string]float64
	if b.traced {
		tracedLayers := b.tr
		b.tr = nil
		if values, err = b.layers(rs, traced, tracedLayers); err != nil {
			return report{}, err
		}
		for _, m := range perLayer {
			rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	} else {
		values = b.endToEnd(rs)
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
	}
	rep.Attempted, rep.Failed = b.attempted.Load(), b.failed.Load()
	rep.Correct = rep.Failed == 0 && len(b.problems) == 0
	if b.traced {
		rep.Metrics["failed_frac"] = metricValue{float64(rep.Failed) / float64(max(rep.Attempted, 1)), "ratio"}
	}
	return rep, nil
}

// endToEnd derives the untraced run's metrics: medians over rounds, and
// resubmit percentiles over every resubmit of the run.
func (b *bench) endToEnd(rs []roundStat) map[string]float64 {
	var wall, cps, pps, apm, resub []float64
	for _, r := range rs {
		wall = append(wall, r.wall)
		cps = append(cps, float64(r.simCycles)/r.coldWall)
		pps = append(pps, float64(r.points)/r.coldWall)
		apm = append(apm, float64(r.alloc)/(1<<20)/float64(r.points))
		resub = append(resub, r.resubmits...)
	}
	return map[string]float64{
		"setup_s":            median(b.setup.times),
		"run_s":              median(wall),
		"sim_cycles_per_s":   median(cps),
		"points_per_s":       median(pps),
		"resubmit_s_p50":     percentile(resub, 0.5),
		"resubmit_s_p90":     percentile(resub, resubmitQuantile),
		"peak_rss_mb":        peakRSSMiB(),
		"alloc_mb_per_point": median(apm),
	}
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scratchDir makes a fresh directory under the run's work directory.
func (b *bench) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(b.work, prefix)
}

func (b *bench) spanPath() string {
	return filepath.Join(filepath.Dir(b.work), "spans", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
}
