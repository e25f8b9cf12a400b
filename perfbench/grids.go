package main

import (
	"runtime"

	"lapses/internal/core"
	"lapses/internal/experiments"
	"lapses/internal/fault"
	"lapses/internal/selection"
	"lapses/internal/sweep"
	"lapses/internal/table"
	"lapses/internal/traffic"
)

// The program sees only the configs built here; the workload seed picks
// every random choice and becomes each point's traffic seed.

// nproc is the machine's parallelism: the width of every worker pool and
// the shard count of the sharded kernel points.
var nproc = runtime.NumCPU()

// recipe is the paper's LAPSES router: 16x16 mesh, Duato routing with one
// escape and three adaptive VCs, economical-storage tables, LRU path
// selection and the look-ahead (LA-PROUD) pipeline.
func recipe(seed int64) core.Config {
	c := core.DefaultConfig()
	c.Seed = seed
	return c
}

// kernelGrid is kernel-recipe's round: the recipe across the load axis at
// one shard, then the workhorse point and a 32x32 loaded point sharded
// across every core. Index 1 and 3 differ only in Shards, so their
// Results must be identical.
func kernelGrid(seed int64) []core.Config {
	at := func(load float64, measure, shards int) core.Config {
		c := recipe(seed)
		c.Load = load
		c.Warmup, c.Measure = measure/5, measure
		c.Shards = shards
		return c
	}
	big := at(0.5, 4000, nproc)
	big.Dims = []int{32, 32}
	return []core.Config{
		at(0.1, 3000, 1),     // light
		at(0.3, 3000, 1),     // workhorse
		at(0.45, 3000, 1),    // loaded
		at(0.3, 3000, nproc), // workhorse, sharded
		big,
	}
}

// point is one entry of a grid design: the structure and workload of a
// quick-tier point, before the seed gives it traffic.
type point struct {
	dims      int
	alg       core.Alg
	table     table.Kind
	sel       selection.Kind
	lookAhead bool
	pattern   traffic.Kind
	load      float64
	faults    bool // a static plan of three failed links
	event     bool
}

// design is the structural variety the grids cover: every routing
// family, every table organization, four selection policies, both
// pipelines and three patterns, at loads below each pattern's knee (a
// saturated point runs until a guard trips and costs many times a
// sustained one). Interval tables hold only YX routes: under row-major
// labels those are the deterministic routes that form intervals.
var design = []point{
	{16, core.AlgDuato, table.KindES, selection.LRU, true, traffic.Uniform, 0.2, false, false},
	{16, core.AlgDuato, table.KindFull, selection.LRU, true, traffic.Uniform, 0.3, false, false},
	{16, core.AlgDuato, table.KindMetaRow, selection.MaxCredit, true, traffic.Transpose, 0.15, false, false},
	{16, core.AlgDuato, table.KindMetaBlock, selection.MinMux, false, traffic.BitReversal, 0.1, false, false},
	{16, core.AlgXY, table.KindFull, selection.StaticXY, true, traffic.Uniform, 0.25, false, false},
	{16, core.AlgYX, table.KindInterval, selection.StaticXY, true, traffic.Transpose, 0.1, false, false},
	{16, core.AlgWestFirst, table.KindES, selection.LRU, false, traffic.Uniform, 0.15, false, false},
	{16, core.AlgWestFirst, table.KindFull, selection.MaxCredit, true, traffic.BitReversal, 0.2, false, false},
	{16, core.AlgDuato, table.KindES, selection.LRU, true, traffic.Uniform, 0.15, true, false},
	{16, core.AlgXY, table.KindFull, selection.StaticXY, true, traffic.Transpose, 0.1, true, false},
	{16, core.AlgDuato, table.KindES, selection.LRU, true, traffic.Uniform, 0.1, false, true},
	{16, core.AlgDuato, table.KindFull, selection.MinMux, true, traffic.BitReversal, 0.15, false, false},
}

// big is the 32x32 minority point of grid-sweep.
var big = point{32, core.AlgDuato, table.KindES, selection.LRU, true, traffic.Uniform, 0.1, false, false}

// config turns a design point into a quick-tier config with its own
// traffic seed; fault plans are drawn from the seed too.
func (p point) config(seed int64) (core.Config, error) {
	c := recipe(seed)
	c.Dims = []int{p.dims, p.dims}
	c.Algorithm, c.Table, c.Selection = p.alg, p.table, p.sel
	c.LookAhead, c.Pattern, c.Load, c.EventMode = p.lookAhead, p.pattern, p.load, p.event
	c.Warmup, c.Measure = 300, 3000
	if p.faults {
		plan, err := fault.Random(c.Mesh(), 3, 0, seed)
		if err != nil {
			return c, err
		}
		c.Faults = plan
	}
	return c, nil
}

// configs builds the points of a design at a workload seed. The design
// fixes how much work a grid is; the seed draws every point's traffic and
// every fault plan's failed links.
func configs(seed int64, pts []point) ([]core.Config, error) {
	grid := make([]core.Config, len(pts))
	for i, p := range pts {
		var err error
		if grid[i], err = p.config(seed*1000 + int64(i)); err != nil {
			return nil, err
		}
	}
	return grid, nil
}

// sweepGrid is grid-sweep's grid: the 32x32 point first (the longest
// point starts first, as a scheduler would place it), the design, and
// then repeats of four earlier points, as fig5 and fig6 share their
// LA-ADAPT series; the memo cache answers those.
func sweepGrid(seed int64) ([]core.Config, error) {
	grid, err := configs(seed, append([]point{big}, design...))
	if err != nil {
		return nil, err
	}
	for _, i := range []int{1, 5, 9, 11} {
		grid = append(grid, grid[i])
	}
	return grid, nil
}

// bisectSpec is grid-sweep's saturation search: the recipe's saturation
// load under uniform traffic, with the experiments' own probe budgets.
func bisectSpec(seed int64) sweep.BisectSpec {
	c := recipe(seed)
	c.Warmup, c.Measure = 300, 3000
	return experiments.SaturationSpec(c, 0.3, 0.9, 0.05)
}

// serveGrid is the grid served-store and cluster-lease submit: the
// design's distinct points, the same for both workloads at a given seed
// so the two serving modes compare on identical work.
func serveGrid(seed int64) ([]core.Config, error) { return configs(seed, design) }
