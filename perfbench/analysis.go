package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lapses/internal/core"
)

// layers derives the traced run's per-layer metrics from the traced
// rounds, their spans, the set-up passes and the layer probes. Counts are
// per round; times are per call (p50/p90) or per round (sums, self times).
func (b *bench) layers(untraced, traced []roundStat, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{}
	for k, x := range b.layer {
		v[k] = x
	}
	spans := tr.snapshot()
	counts := tr.counters()
	n := float64(len(traced))

	// Construction, from the set-up passes.
	v["routing.build_s"] = median(b.setup.routingS)
	v["table.build_s"] = median(b.setup.tableS)
	v["table.entries"] = float64(b.setup.entries)
	if b.setup.entries > 0 {
		v["table.ns_per_entry"] = v["table.build_s"] / float64(b.setup.entries) * 1e9
	}
	v["setup.core_warm_s"] = b.setup.coreWarm
	v["store.open_s"] = median(b.setup.openS)

	// Kernel, from the network-layer probe over one round's points.
	if err := b.kernelLayer(v); err != nil {
		return nil, err
	}
	if err := b.speedups(v); err != nil {
		return nil, err
	}

	// Sweep: point spans come from the Runner seam on every workload
	// (in-process sweep, the standalone server, the cluster workers).
	pts := durations(spans, "sweep.point")
	v["sweep.point_s_p50"] = percentile(pts, 0.5)
	v["sweep.point_s_p90"] = percentile(pts, 0.9)
	var cold float64
	for _, r := range traced {
		cold += r.coldWall
	}
	// Only cold passes simulate, so busy time is over the cold wall.
	busy := sum(pts) / (float64(b.width) * cold)
	v["sweep.busy_frac"] = busy
	first := traced[0]
	v["sweep.cache_hits"] = float64(first.hits)
	v["sweep.cache_misses"] = float64(first.points - first.hits)
	v["sweep.hit_ratio"] = float64(first.hits) / float64(first.points)
	v["sweep.bisect_probes"] = float64(first.bisectProbes)
	v["sweep.bisect_cycles"] = float64(first.bisectCycles)

	// Store.
	v["store.get_s_p50"] = percentile(b.sampled["store.get"], 0.5)
	v["store.put_s_p50"] = percentile(b.sampled["store.put"], 0.5)

	// HTTP, from the transport seam.
	var requests int
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "http.") || strings.HasPrefix(s.Name, "lease.") {
			requests++
		}
	}
	jobs := len(durations(spans, "job.cold")) + len(durations(spans, "job.warm"))
	status := durations(spans, "http.status")
	results := durations(spans, "http.results")
	v["http.requests"] = float64(requests) / n
	v["http.errors"] /= n
	if len(results) > 0 {
		v["http.polls_per_job"] = float64(len(status)) / float64(jobs)
		v["http.results_bytes"] = counts["http.results_bytes"] / float64(len(results))
	}
	v["http.submit_s_p50"] = percentile(durations(spans, "http.submit"), 0.5)
	v["http.status_s_p50"] = percentile(status, 0.5)
	v["http.results_s_p50"] = percentile(results, 0.5)
	self := selfTimes(spans)
	if inproc := b.sampled["serve.inprocess"]; len(inproc) > 0 {
		var cw []float64
		for _, r := range traced {
			cw = append(cw, r.coldWall)
		}
		v["serve.cold_overhead_frac"] = median(cw)/median(inproc) - 1
		// A served job's own time, outside its HTTP requests, is the
		// client's poll sleeps plus encoding and decoding.
		var jobDur float64
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "job.") {
				jobDur += s.dur()
			}
		}
		v["client.wait_frac"] = (self["job.cold"] + self["job.warm"]) / jobDur
		v["client.lag_frac"] = pollLag(spans) / jobDur
	}

	// Leases: coordinator counters (summed by the rounds) and worker RPCs.
	claims := durations(spans, "lease.claim")
	if len(claims) > 0 {
		v["lease.empty_claims"] = (float64(len(claims)) - v["lease.claims"]) / n
		v["lease.claims"] /= n
		v["lease.requeues"] /= n
		v["lease.late_reports"] /= n
		v["lease.claim_s_p50"] = percentile(claims, 0.5)
		v["lease.heartbeats"] = float64(len(durations(spans, "lease.heartbeat"))) / n
		v["lease.complete_s_p50"] = percentile(durations(spans, "lease.complete"), 0.5)
		if leased := counts["lease.points_leased"]; leased > 0 {
			v["lease.useful_ratio"] = float64(len(b.grid)) * n / leased
		}
		v["lease.worker_busy_frac"] = busy
		v["lease.idle_frac"] = clippedTo(spans, "worker.idle", "job.cold") / (float64(b.width) * cold)
	}

	// The run and its trace.
	samples := 0
	var uw, tw []float64
	for _, r := range untraced {
		samples += len(r.resubmits)
		uw = append(uw, r.wall)
	}
	for _, r := range traced {
		tw = append(tw, r.wall)
	}
	v["resubmit.samples"] = float64(samples)
	v["trace.overhead_s"] = median(tw) - median(uw)
	v["trace.spans"] = float64(len(spans))
	v["self.round_s"] = self["round"] / n
	v["self.job_s"] = (self["job.cold"] + self["job.warm"]) / n
	v["self.point_s"] = self["sweep.point"] / n
	for name, t := range self {
		switch {
		case strings.HasPrefix(name, "http."):
			v["self.http_s"] += t / n
		case strings.HasPrefix(name, "lease."):
			v["self.lease_s"] += t / n
		}
	}
	if err := writeSpans(b.spanPath(), spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "perfbench: %d spans written to %s\n", len(spans), b.spanPath())
	return v, nil
}

// pollLag sums, over served jobs, the sleep before the status poll that
// found the job finished: the most the poll cadence can have added to the
// job's time, since the job ended somewhere inside that sleep or poll.
func pollLag(spans []span) float64 {
	reqs := map[int64][]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "http.") {
			reqs[s.Parent] = append(reqs[s.Parent], s)
		}
	}
	lag := 0.0
	for _, j := range spans {
		rs := reqs[j.ID]
		if !strings.HasPrefix(j.Name, "job.") || len(rs) < 2 {
			continue
		}
		sort.Slice(rs, func(a, b int) bool { return rs[a].Start < rs[b].Start })
		for k := len(rs) - 1; k >= 1; k-- {
			if rs[k].Name == "http.status" {
				lag += rs[k].Start - rs[k-1].End
				break
			}
		}
	}
	return lag
}

// clippedTo sums the parts of the spans called name that fall inside
// spans called window.
func clippedTo(spans []span, name, window string) float64 {
	var ws []span
	for _, s := range spans {
		if s.Name == window {
			ws = append(ws, s)
		}
	}
	t := 0.0
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		for _, w := range ws {
			if a, e := max(s.Start, w.Start), min(s.End, w.End); e > a {
				t += e - a
			}
		}
	}
	return t
}

// kernelLayer runs each point one traced round simulated through the
// network layer directly, giving network.New's cost and the kernel's
// work counts per round.
func (b *bench) kernelLayer(v map[string]float64) error {
	structs := map[string]built{}
	seen := map[string]bool{}
	var newS []float64
	var runS float64
	var cycles, skipped, messages int64
	var hops uint64
	for _, o := range b.coldOuts {
		if seen[o.Config.Key()] {
			continue
		}
		seen[o.Config.Key()] = true
		sk := structureKey(o.Config)
		bl, ok := structs[sk]
		if !ok {
			var err error
			if bl, err = buildStructure(o.Config); err != nil {
				return err
			}
			structs[sk] = bl
		}
		ks, err := kernelProbe(o.Config, bl, o.Result)
		if err != nil {
			return err
		}
		newS = append(newS, ks.newS)
		runS += ks.runS
		cycles += ks.cycles
		skipped += ks.skipped
		hops += ks.flitHops
		messages += ks.messages
	}
	v["network.new_s_p50"] = median(newS)
	v["network.new_s_sum"] = sum(newS)
	v["network.run_s"] = runS
	v["network.cycles"] = float64(cycles)
	v["network.cycles_skipped"] = float64(skipped)
	v["network.flit_hops"] = float64(hops)
	v["network.messages"] = float64(messages)
	if cycles > 0 {
		v["network.ns_per_cycle"] = runS / float64(cycles) * 1e9
	}
	if hops > 0 {
		v["network.ns_per_flit_hop"] = runS / float64(hops) * 1e9
	}
	return nil
}

// speedups times kernel-recipe's sharded points again at one shard
// (network.shard_speedup, the ratio of summed times) and its light point
// in event mode (network.event_speedup). Sharded and unsharded results
// must be identical: the cycle kernel is bit-identical for any shard
// count.
func (b *bench) speedups(v map[string]float64) error {
	timed := func(c core.Config) (core.Result, float64, error) {
		one := c
		one.Warmup, one.Measure = 0, 1
		if _, err := core.Run(one); err != nil { // build outside the timing
			return core.Result{}, 0, err
		}
		t0 := time.Now()
		r, err := core.Run(c)
		return r, time.Since(t0).Seconds(), err
	}
	grid := kernelGrid(b.seed)
	var sharded, serial float64
	for _, c := range grid {
		if c.EffectiveShards() == 1 {
			continue
		}
		rs, ts, err := timed(c)
		if err != nil {
			return err
		}
		c.Shards = 1
		r1, t1, err := timed(c)
		if err != nil {
			return err
		}
		b.checkFP(fmt.Sprintf("shards=1 rerun of %s", c.Key()), resultFingerprint(r1), resultFingerprint(rs))
		sharded += ts
		serial += t1
	}
	if sharded > 0 {
		v["network.shard_speedup"] = serial / sharded
	}
	light := grid[0]
	_, tc, err := timed(light)
	if err != nil {
		return err
	}
	light.EventMode = true
	_, te, err := timed(light)
	if err != nil {
		return err
	}
	v["network.event_speedup"] = tc / te
	return nil
}
