package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// Resubmits per round: enough that a run at the smallest round count
// still gathers the resubmit tail, without the warm half dominating the
// round.
const (
	inProcessResubmits = 10
	servedResubmits    = 20
	clusterResubmits   = 12
)

// warmBatch is how many back-to-back warm passes make one in-process
// resubmit sample, reported as their mean: a single pass answers from the
// memo cache in microseconds, too short for one timing to repeat from run
// to run; 250 take milliseconds.
const warmBatch = 250

var workloads = map[string]workload{
	// kernel-recipe: the paper's router in the cycle kernel, one point at
	// a time. Router stages, wheels, NI injection and (on the sharded
	// points) the shard barrier do nearly all the work.
	"kernel-recipe": {
		width: 1,
		grid:  func(b *bench) ([]core.Config, error) { return kernelGrid(b.seed), nil },
		round: func(b *bench) (roundStat, error) {
			r, outs, err := inProcessRound(b, nil)
			if err == nil && resultFingerprint(outs[1].Result) != resultFingerprint(outs[3].Result) {
				b.fail("shards=%d result differs from shards=1 on %s", outs[3].Config.EffectiveShards(), outs[1].Config.Key())
			}
			return r, err
		},
	},
	// grid-sweep: a structurally varied grid of short points through the
	// sweep engine with a shared memo cache, plus one saturation search.
	// Construction, the worker pool, cache single-flight and bisection
	// carry the weight; nothing shards.
	"grid-sweep": {
		width: nproc,
		grid:  func(b *bench) ([]core.Config, error) { return sweepGrid(b.seed) },
		round: func(b *bench) (roundStat, error) {
			spec := bisectSpec(b.seed)
			r, _, err := inProcessRound(b, &spec)
			return r, err
		},
	},
	// served-store: a standalone lapses-serve server on loopback over a
	// fresh store. The cold job simulates and writes every point with
	// fsync; the warm resubmits are store reads, JSON and HTTP only.
	"served-store": {
		width:     nproc,
		grid:      func(b *bench) ([]core.Config, error) { return serveGrid(b.seed) },
		start:     func(b *bench) (*service, error) { return b.startService(false) },
		round:     func(b *bench) (roundStat, error) { return servedRound(b, false) },
		reference: inProcessReference,
	},
	// cluster-lease: a coordinator and nproc in-process workers sharing a
	// fresh store. The cold job runs through lease claim, heartbeat and
	// complete round trips; resubmits resolve from the store.
	"cluster-lease": {
		width:     nproc,
		grid:      func(b *bench) ([]core.Config, error) { return serveGrid(b.seed) },
		start:     func(b *bench) (*service, error) { return b.startService(true) },
		round:     func(b *bench) (roundStat, error) { return servedRound(b, true) },
		reference: inProcessReference,
	},
}

// inProcessRound is one round of an in-process workload: the grid (and
// the bisection, when spec is set) through sweep with a fresh memo cache
// and the workload's width of points at a time, then warm resubmits of
// the grid, which the cache answers.
func inProcessRound(b *bench, spec *sweep.BisectSpec) (roundStat, []sweep.Outcome, error) {
	ctx := context.Background()
	var r roundStat
	roundRef, endRound := b.tr.begin(ref{}, "round", b.nextJob("round"))
	defer endRound()
	b.setPointParent(roundRef)
	opt := sweep.Options{Workers: b.width, Cache: sweep.NewCache(), Runner: b.pointRunner()}

	cache := opt.Cache
	t0 := time.Now()
	outs, err := sweep.Run(ctx, b.grid, opt)
	if err != nil {
		return r, nil, err
	}
	var bis sweep.BisectResult
	if spec != nil {
		if bis, err = sweep.Bisect(ctx, *spec, opt); err != nil {
			return r, nil, err
		}
	}
	r.coldWall = time.Since(t0).Seconds()

	fp := newFingerprint()
	if err := fp.outcomes(outs); err != nil {
		return r, nil, err
	}
	b.attempted.Add(int64(len(outs)))
	r.points = len(outs)
	for _, o := range outs {
		if o.Cached {
			r.hits++
		} else {
			r.simCycles += o.Result.TotalCycles
		}
	}
	if spec != nil {
		fmt.Fprintf(fp.h, "bisect %v %v %d %d %d %v\n", bis.Lo, bis.Hi, bis.Probes, bis.Cached, bis.SimulatedCycles, bis.Converged)
		fp.result(bis.LoResult)
		b.attempted.Add(int64(bis.Probes))
		r.points += bis.Probes
		r.hits += bis.Cached
		r.simCycles += bis.SimulatedCycles
		r.bisectProbes, r.bisectCycles = bis.Probes, bis.SimulatedCycles
	}
	r.fp = fp.sum()
	coldFP := gridFP(outs)
	if b.tr != nil {
		b.coldOuts = outs
	}

	for i := 0; i < inProcessResubmits; i++ {
		_, end := b.tr.begin(roundRef, "job.warm", "")
		t := time.Now()
		again, err := resubmitCached(ctx, cache, b.grid)
		if err != nil {
			return r, nil, err
		}
		for k := 1; k < warmBatch; k++ {
			if _, err := resubmitCached(ctx, cache, b.grid); err != nil {
				return r, nil, err
			}
		}
		batch := time.Since(t).Seconds()
		end()
		r.wall += batch
		r.resubmits = append(r.resubmits, batch/warmBatch)
		b.checkFP("resubmit", gridFP(again), coldFP)
	}
	r.wall += r.coldWall
	return r, outs, nil
}

// resubmitCached asks the memo cache for every point of grid again, the
// lookup sweep makes for a repeated point. The cache holds every point, so
// none may simulate.
func resubmitCached(ctx context.Context, cache sweep.Cacher, grid []core.Config) ([]sweep.Outcome, error) {
	outs := make([]sweep.Outcome, len(grid))
	for i, c := range grid {
		outs[i].Config = c
		outs[i].Result, outs[i].Cached, outs[i].Err = cache.Do(ctx, c, func(core.Config) (core.Result, error) {
			return core.Result{}, errors.New("resubmit missed the memo cache")
		})
		if outs[i].Err != nil {
			return nil, outs[i].Err
		}
	}
	return outs, nil
}

// gridFP fingerprints a grid's outcomes; a failed point yields a
// fingerprint no successful grid has.
func gridFP(outs []sweep.Outcome) string {
	fp := newFingerprint()
	if err := fp.outcomes(outs); err != nil {
		return "error: " + err.Error()
	}
	return fp.sum()
}

// inProcessReference runs the serving workloads' grid through sweep.Run
// in this process, the result every served and clustered round must
// reproduce exactly.
func inProcessReference(b *bench) (string, error) {
	outs, err := sweep.Run(context.Background(), b.grid, sweep.Options{Workers: nproc, Cache: sweep.NewCache()})
	if err != nil {
		return "", err
	}
	fp := newFingerprint()
	if err := fp.outcomes(outs); err != nil {
		return "", err
	}
	return fp.sum(), nil
}
