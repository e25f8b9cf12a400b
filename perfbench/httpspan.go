package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lapses/internal/serve"
)

// timedTransport is the HTTP seam: an http.RoundTripper handed to
// serve.Client.HTTP and serve.Worker.HTTP. It always counts requests and
// non-2xx answers (the benchmark's failure count); with a tracer it also
// records one span per request, from the call until its response body is
// closed, so decoding the body counts toward the request.
type timedTransport struct {
	base     http.RoundTripper
	tr       *tracer
	requests atomic.Int64
	errors   atomic.Int64

	// parent is the span requests without a span in their context hang
	// under (worker RPCs, whose completions run on a fresh context).
	parent atomic.Pointer[ref]

	mu        sync.Mutex
	idleSince time.Time // end of the last empty claim, zero when busy
}

func newTimedTransport(base http.RoundTripper, tr *tracer, parent ref) *timedTransport {
	t := &timedTransport{base: base, tr: tr}
	t.setParent(parent)
	return t
}

func (t *timedTransport) setParent(r ref) { t.parent.Store(&r) }

// rpcName maps a request onto the serve API call it makes.
func rpcName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "http.submit"
	case strings.HasSuffix(p, "/results"):
		return "http.results"
	case req.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "http.status"
	case strings.HasPrefix(p, "/v1/cluster/"):
		return "lease." + strings.TrimPrefix(p, "/v1/cluster/")
	case p == "/healthz":
		return "http.health"
	}
	return "http.other"
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := rpcName(req)
	start := time.Now()
	if t.tr != nil && name == "lease.claim" {
		t.mu.Lock()
		if !t.idleSince.IsZero() {
			t.tr.add(*t.parent.Load(), "worker.idle", "", t.idleSince, start)
			t.idleSince = time.Time{}
		}
		t.mu.Unlock()
	}
	resp, err := t.base.RoundTrip(req)
	t.requests.Add(1)
	// A request its own caller cancelled (a worker stopped at the end of
	// a round) is not a failure of the server.
	if (err != nil && req.Context().Err() == nil) || (err == nil && resp.StatusCode/100 != 2) {
		t.errors.Add(1)
	}
	if t.tr == nil {
		return resp, err
	}
	parent := spanFrom(req.Context())
	if parent.id == 0 {
		parent = *t.parent.Load()
	}
	if err != nil {
		t.tr.add(parent, name, "", start, time.Now())
		return resp, err
	}
	if name == "lease.claim" {
		// Read the grant here so an empty one (no work) can start the
		// worker's idle span.
		buf, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(buf))
		end := time.Now()
		t.tr.add(parent, name, "", start, end)
		var grant serve.ClaimResponse
		if rerr == nil && json.Unmarshal(buf, &grant) == nil {
			if grant.Lease == "" {
				t.mu.Lock()
				t.idleSince = end
				t.mu.Unlock()
			}
			t.tr.count("lease.points_leased", float64(len(grant.Indices)))
		}
		return resp, nil
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.add(parent, name, "", start, time.Now())
		if name == "http.results" {
			t.tr.count("http.results_bytes", float64(n))
		}
	}}
	return resp, nil
}

// spanBody ends its request's span when the body is closed.
type spanBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
