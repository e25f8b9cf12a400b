package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lapses/internal/serve"
	"lapses/internal/sweep"
)

// Serving cadence. The client's defaults (150ms polls doubling to 2.4s,
// 250ms worker idle waits, a 10s lease TTL heartbeated every 2.5s) would
// make job completion time mostly waiting; these keep the waits small
// against a job, and the traced run reports what waiting remains
// (client.lag_frac, lease.idle_frac). The heartbeat is also the pause the
// coordinator asks of a worker that found no work, so it sets how often
// idle workers poll: shorter would make their polling compete with the
// client for the CPUs.
const (
	pollInterval = 250 * time.Microsecond
	pollCap      = 4 * time.Millisecond
	idleWait     = time.Millisecond
	leaseTTL     = 2 * time.Second
	heartbeat    = 25 * time.Millisecond
	unitSize     = 2
)

// frontDoor is the loopback listener every round's server answers on.
// Rounds start a fresh server on a fresh store and swap it in, so the
// client keeps its connections and one base URL for the whole run.
type frontDoor struct {
	ln      net.Listener
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
	base    *http.Transport
}

func newFrontDoor() (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &frontDoor{ln: ln, done: make(chan struct{}),
		base: &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute}}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := f.handler.Load()
		if h == nil {
			http.Error(w, "no server", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	})}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln)
	}()
	return f, nil
}

func (f *frontDoor) url() string { return "http://" + f.ln.Addr().String() }

func (f *frontDoor) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
	<-f.done
	f.base.CloseIdleConnections()
}

// service is one round's server (and cluster workers) over one store.
type service struct {
	dir     string
	store   *serve.Store
	srv     *serve.Server
	client  *serve.Client
	clientT *timedTransport
	workerT []*timedTransport
	openS   float64

	cancelWorkers context.CancelFunc
	workersDone   sync.WaitGroup
}

// startService opens a store on an empty directory, starts a standalone
// server or a coordinator with nproc workers on it, and waits until the
// server answers its health check.
func (b *bench) startService(cluster bool) (*service, error) {
	if b.front == nil {
		f, err := newFrontDoor()
		if err != nil {
			return nil, err
		}
		b.front = f
	}
	dir, err := b.scratchDir("store-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	t0 := time.Now()
	if s.store, err = serve.Open(dir); err != nil {
		return nil, err
	}
	s.openS = time.Since(t0).Seconds()
	opt := serve.ServerOptions{Workers: nproc, Runner: b.pointRunner()}
	if cluster {
		opt = serve.ServerOptions{Cluster: &serve.ClusterOptions{LeaseTTL: leaseTTL, Heartbeat: heartbeat, UnitSize: unitSize}}
	}
	s.srv = serve.NewServer(s.store, opt)
	h := s.srv.Handler()
	b.front.handler.Store(&h)
	s.clientT = newTimedTransport(b.front.base, b.tr, ref{})
	s.client = &serve.Client{Base: b.front.url(), HTTP: &http.Client{Transport: s.clientT},
		PollInterval: pollInterval, PollCap: pollCap}
	if cluster {
		ctx, cancel := context.WithCancel(context.Background())
		s.cancelWorkers = cancel
		for i := 0; i < nproc; i++ {
			ws, err := serve.Open(dir)
			if err != nil {
				s.stop()
				return nil, err
			}
			wt := newTimedTransport(b.front.base, b.tr, ref{})
			s.workerT = append(s.workerT, wt)
			w := &serve.Worker{
				ID: fmt.Sprintf("w%d", i), Coordinators: []string{b.front.url()}, Store: ws,
				Workers: 1, HTTP: &http.Client{Transport: wt}, Runner: b.pointRunner(), IdleWait: idleWait,
			}
			s.workersDone.Add(1)
			go func() {
				defer s.workersDone.Done()
				w.Run(ctx)
			}()
		}
	}
	if err := s.client.Health(context.Background()); err != nil {
		s.stop()
		return nil, fmt.Errorf("health check: %w", err)
	}
	return s, nil
}

// stop stops the workers, drains the server and deletes the store.
func (s *service) stop() {
	if s.cancelWorkers != nil {
		s.cancelWorkers()
		s.workersDone.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	os.RemoveAll(s.dir)
}

// servedRound is one round of a serving workload: one cold job on a
// fresh store, then warm resubmits of the same grid.
func servedRound(b *bench, cluster bool) (roundStat, error) {
	var r roundStat
	svc, err := b.startService(cluster)
	if err != nil {
		return r, err
	}
	defer svc.stop()
	ctx := context.Background()
	roundRef, endRound := b.tr.begin(ref{}, "round", "")
	jobRef, endJob := b.tr.begin(roundRef, "job.cold", b.nextJob("cold"))
	// Server-side spans share the job's id but are not its children: the
	// job span's self time is then the client's own (poll sleeps,
	// encoding, decoding).
	b.setPointParent(ref{job: jobRef.job})
	for _, wt := range svc.workerT {
		wt.setParent(ref{job: jobRef.job})
	}
	t0 := time.Now()
	outs, err := svc.client.Run(withSpan(ctx, jobRef), b.grid, sweep.Options{})
	r.coldWall = time.Since(t0).Seconds()
	endJob()
	if err != nil {
		endRound()
		return r, fmt.Errorf("cold job: %w", err)
	}
	fp := newFingerprint()
	if err := fp.outcomes(outs); err != nil {
		endRound()
		return r, err
	}
	r.fp = fp.sum()
	b.attempted.Add(int64(len(outs)))
	r.points = len(outs)
	for _, o := range outs {
		if o.Cached {
			r.hits++
		} else {
			r.simCycles += o.Result.TotalCycles
		}
	}

	n := servedResubmits
	if cluster {
		n = clusterResubmits
	}
	for i := 0; i < n; i++ {
		warmRef, endWarm := b.tr.begin(roundRef, "job.warm", b.nextJob("warm"))
		t := time.Now()
		again, err := svc.client.Run(withSpan(ctx, warmRef), b.grid, sweep.Options{})
		lat := time.Since(t).Seconds()
		endWarm()
		r.wall += lat
		b.attempted.Add(1)
		if err != nil {
			b.fail("resubmit: %v", err)
			continue
		}
		r.resubmits = append(r.resubmits, lat)
		b.checkFP("resubmit", gridFP(again), r.fp)
	}
	r.wall += r.coldWall
	endRound()

	// Non-2xx answers are failures whichever side saw them.
	for _, t := range append([]*timedTransport{svc.clientT}, svc.workerT...) {
		if e := t.errors.Load(); e > 0 {
			if b.tr != nil {
				b.layer["http.errors"] += float64(e)
			}
			b.failed.Add(e)
			b.problems = append(b.problems, fmt.Sprintf("%d failed HTTP requests", e))
		}
		b.attempted.Add(t.requests.Load())
	}
	if b.tr != nil {
		b.coldOuts = outs
		if err := b.probeStore(svc, outs); err != nil {
			return r, err
		}
		// The same grid in-process, next to the served cold job, for
		// serve.cold_overhead_frac.
		t := time.Now()
		if _, err := sweep.Run(ctx, b.grid, sweep.Options{Workers: nproc, Cache: sweep.NewCache()}); err != nil {
			return r, err
		}
		b.samples("serve.inprocess", time.Since(t).Seconds())
		if cluster {
			st, err := svc.client.ClusterStats(ctx)
			if err != nil {
				return r, err
			}
			b.layer["lease.claims"] += float64(st.Claims)
			b.layer["lease.requeues"] += float64(st.OrphanRequeues + st.TransientRequeues)
			b.layer["lease.late_reports"] += float64(st.LateReports)
		}
	}
	return r, nil
}

// probeStore times the store layer on its own, over the round's keys:
// Store.Get on the round's store, and Store.Ensure (a durable write) into
// a scratch store.
func (b *bench) probeStore(svc *service, outs []sweep.Outcome) error {
	st := svc.store.Stats()
	b.layer["store.entries"] = float64(st.Entries)
	b.layer["store.quarantined"] = float64(st.Quarantined)
	dir, err := b.scratchDir("put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := serve.Open(dir)
	if err != nil {
		return err
	}
	for _, o := range outs {
		key := o.Config.Key()
		t0 := time.Now()
		_, ok := svc.store.Get(key)
		t1 := time.Now()
		scratch.Ensure(key, o.Result)
		t2 := time.Now()
		if !ok {
			return errors.New("store probe: a completed point is missing from the store")
		}
		b.samples("store.get", t1.Sub(t0).Seconds())
		b.samples("store.put", t2.Sub(t1).Seconds())
	}
	return nil
}
