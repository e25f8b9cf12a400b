package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"

	"lapses/internal/core"
	"lapses/internal/sweep"
)

// A fingerprint hashes every field of every point's core.Result, in grid
// order. %#v prints floats in their shortest exact form, so any change to
// any simulated statistic changes the fingerprint.

type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) result(r core.Result) { fmt.Fprintf(f.h, "%#v\n", r) }

// outcomes adds a grid's outcomes; a failed point is an error, since
// every benchmark point is a valid config.
func (f *fingerprint) outcomes(outs []sweep.Outcome) error {
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("point %d (%s): %w", i, o.Config.Key(), o.Err)
		}
		fmt.Fprintf(f.h, "%d:", i)
		f.result(o.Result)
	}
	return nil
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

func resultFingerprint(r core.Result) string {
	f := newFingerprint()
	f.result(r)
	return f.sum()
}

// pins maps workload -> seed -> the fingerprint of one round at that seed.
type pins map[string]map[string]string

//go:embed pins.json
var shippedPins []byte

// loadPins reads the pinned fingerprints: the shipped ones, or path.
func loadPins(path string) (pins, error) {
	raw := shippedPins
	if path != "" {
		var err error
		if raw, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var p pins
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	return p, nil
}

// lookup returns the pinned fingerprint for (workload, seed), if any.
func (p pins) lookup(workload string, seed int64) (string, bool) {
	fp, ok := p[workload][strconv.FormatInt(seed, 10)]
	return fp, ok
}
