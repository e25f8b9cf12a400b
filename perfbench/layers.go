package main

import (
	"fmt"
	"time"

	"lapses/internal/core"
	"lapses/internal/network"
	"lapses/internal/router"
	"lapses/internal/routing"
	"lapses/internal/table"
	"lapses/internal/topology"
	"lapses/internal/traffic"
)

// The construction and kernel layers are not separately callable through
// core.Run, which builds and caches a network's routing function and
// tables per process. The functions here call the same public layer
// constructors core.Run calls, in the same order, so each layer can be
// timed on its own. kernelProbe checks its mirror against core.Run's
// Result, so a drift between the two shows as a failed run rather than
// as quietly wrong numbers.

// structureKey names what core shares between runs: the mesh, the VC
// partition, the routing algorithm, the table organization and the
// fault plan.
func structureKey(c core.Config) string {
	return fmt.Sprintf("d%v,t%t,v%d,e%d,a%d,tb%d,f[%s]",
		c.Dims, c.Torus, c.VCs, c.EscapeVCs, int(c.Algorithm), int(c.Table), c.Faults.Key())
}

// distinctStructures returns one config per distinct structure of grid,
// in first-seen order.
func distinctStructures(grid []core.Config) []core.Config {
	seen := map[string]bool{}
	var out []core.Config
	for _, c := range grid {
		if k := structureKey(c); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// class mirrors core's VC partition: only Duato keeps escape VCs, and a
// Duato torus needs two.
func class(c core.Config) routing.Class {
	esc := c.EscapeVCs
	if c.Algorithm != core.AlgDuato {
		esc = 0
	}
	if c.Algorithm == core.AlgDuato && c.Torus && esc < 2 {
		esc = 2
	}
	return routing.Class{NumVCs: c.VCs, EscapeVCs: esc}
}

// built is one constructed structure with its layer timings.
type built struct {
	alg      routing.Algorithm
	cls      routing.Class
	tables   []table.Table
	routingS float64
	tableS   float64
	entries  int
}

// buildStructure constructs c's routing function and per-node tables the
// way core does, timing each layer.
func buildStructure(c core.Config) (built, error) {
	m := c.Mesh()
	b := built{cls: class(c)}
	t0 := time.Now()
	var err error
	switch {
	case !c.Faults.Empty() && c.Algorithm == core.AlgDuato:
		b.alg, err = routing.NewFaultDuato(m, b.cls, c.Faults)
	case !c.Faults.Empty():
		b.alg, err = routing.NewFaultDimOrder(m, b.cls, c.Faults)
	case c.Algorithm == core.AlgXY:
		b.alg = routing.NewDimOrder(m, b.cls, nil)
	case c.Algorithm == core.AlgYX:
		b.alg = routing.NewDimOrder(m, b.cls, []int{1, 0})
	case c.Algorithm == core.AlgDuato:
		b.alg = routing.NewDuato(m, b.cls)
	case c.Algorithm == core.AlgNorthLast:
		b.alg = routing.NewNorthLast(m, b.cls)
	case c.Algorithm == core.AlgWestFirst:
		b.alg = routing.NewWestFirst(m, b.cls)
	case c.Algorithm == core.AlgNegativeFirst:
		b.alg = routing.NewNegativeFirst(m, b.cls)
	default:
		return b, fmt.Errorf("unsupported algorithm %v", c.Algorithm)
	}
	if err != nil {
		return b, fmt.Errorf("building routing for %s: %w", structureKey(c), err)
	}
	t1 := time.Now()
	b.tables = make([]table.Table, m.N())
	for id := range b.tables {
		b.tables[id] = table.Build(c.Table, m, b.alg, b.cls, topology.NodeID(id))
		b.entries += b.tables[id].Entries()
	}
	t2 := time.Now()
	b.routingS, b.tableS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	return b, nil
}

// kernelStat is one point simulated through the network layer directly.
type kernelStat struct {
	newS     float64 // network.New
	runS     float64 // network.Run
	cycles   int64   // executed cycles (advanced minus fast-forwarded)
	skipped  int64
	flitHops uint64
	messages int64
}

// kernelProbe runs c on a network built from b, checking the run against
// want, core.Run's Result for the same config.
func kernelProbe(c core.Config, b built, want core.Result) (kernelStat, error) {
	m := c.Mesh()
	ncfg := network.Config{
		Mesh:   m,
		Faults: c.Faults,
		Router: router.Config{
			NumVCs: c.VCs, BufDepth: c.BufDepth, OutDepth: c.OutDepth,
			LookAhead: c.LookAhead, CutThrough: c.CutThrough,
		},
		LinkDelay: c.LinkDelay,
		Algorithm: b.alg,
		Class:     b.cls,
		Table:     c.Table,
		Tables:    b.tables,
		Selection: c.Selection,
		MsgLen:    c.MsgLen,
		Seed:      c.Seed,
		Shards:    c.Shards,
		EventMode: c.EventMode,
		Pattern:   traffic.New(c.Pattern, m),
		MsgRate:   traffic.MessageRate(m, c.Load, c.MsgLen),
	}
	if err := ncfg.Validate(); err != nil {
		return kernelStat{}, err
	}
	t0 := time.Now()
	net := network.New(ncfg)
	t1 := time.Now()
	run := net.Run(network.RunParams{
		WarmupMessages: c.Warmup, MeasureMessages: c.Measure,
		MaxCycles: c.MaxCycles, SatLatency: c.SatLatency,
	})
	t2 := time.Now()
	if net.Now() != want.TotalCycles || run.Latency.N() != want.Delivered || run.Throughput() != want.Throughput {
		return kernelStat{}, fmt.Errorf("kernel probe diverged from core.Run on %s: cycles %d vs %d, delivered %d vs %d",
			c.Key(), net.Now(), want.TotalCycles, run.Latency.N(), want.Delivered)
	}
	return kernelStat{
		newS: t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(),
		cycles: net.Now() - net.SkippedCycles(), skipped: net.SkippedCycles(),
		flitHops: net.TotalLinkFlits(), messages: net.Delivered(),
	}, nil
}
