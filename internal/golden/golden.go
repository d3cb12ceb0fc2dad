// Package golden freezes protocol runs as compact transcript digests and
// checks them against committed files, so behaviour can be pinned without
// keeping a second implementation around as a differential oracle.
//
// A Digest holds the slot count, a hash over every resolved slot's integer
// content (each transmission's node, channel and %v message; each
// listener's node, channel, decoded flag and sender), a hash over the
// transmissions alone, a hash over the sorted event log, and a hash over
// the JSON encoding of the run's results. The transmissions-only hash
// separates what nodes said from who listened: a change that only drops
// listens whose receptions a protocol discards moves the transcript but
// not the tx hash.
// Received powers and SINR values are left out, so a digest does not move
// with floating-point rounding across Go releases as long as every decode
// decision stays the same.
//
// Digests live in testdata/<TopLevelTest>.golden.json of the package under
// test, keyed by case name. Run the tests with -update-golden to rewrite
// them; only do so for an intentional, explained behaviour change.
package golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/phy"
)

// Update makes Check (and the other golden tests of the importing package)
// rewrite their files from the current output instead of comparing.
var Update = flag.Bool("update-golden", false, "rewrite golden files from current output")

// Digest is the frozen fingerprint of one run.
type Digest struct {
	Slots      int    `json:"slots"`
	Transcript string `json:"transcript"`
	Tx         string `json:"tx"`
	Events     int    `json:"events"`
	EventHash  string `json:"event_hash"`
	Results    string `json:"results"`
}

type event struct {
	slot, node int
	name       string
	value      int
}

// Recorder accumulates one run's digest. Install Trace as the engine's
// slot trace; feed every emitted event to Event.
type Recorder struct {
	h, tx  hash.Hash64
	buf    []byte
	slots  int
	events []event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{h: fnv.New64a(), tx: fnv.New64a()} }

// Trace folds one resolved slot into the transcript hash, and its
// transmissions (if any) into the tx hash. Its signature matches the
// engine's slot trace.
func (r *Recorder) Trace(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
	r.slots++
	r.buf = fmt.Appendf(r.buf[:0], "s%d|", slot)
	for _, tx := range txs {
		r.buf = fmt.Appendf(r.buf, "t%d.%d:%v|", tx.Node, tx.Channel, tx.Msg)
	}
	r.h.Write(r.buf)
	if len(txs) > 0 {
		r.tx.Write(r.buf)
	}
	for i, rx := range rxs {
		fmt.Fprintf(r.h, "r%d.%d:%v,%d|", rx.Node, rx.Channel, recs[i].Decoded, recs[i].From)
	}
}

// Event records one emitted event.
func (r *Recorder) Event(slot, node int, name string, value int) {
	r.events = append(r.events, event{slot, node, name, value})
}

// Digest seals the recorded run together with its results, which are
// hashed through their JSON encoding.
func (r *Recorder) Digest(t testing.TB, results any) Digest {
	t.Helper()
	return Digest{
		Slots:      r.slots,
		Transcript: fmt.Sprintf("%016x", r.h.Sum64()),
		Tx:         fmt.Sprintf("%016x", r.tx.Sum64()),
		Events:     len(r.events),
		EventHash:  eventHash(r.events),
		Results:    jsonHash(t, results),
	}
}

// eventHash hashes an event log in its canonical (slot, node, name, value)
// order; the emission order between nodes within a slot is unspecified.
func eventHash(evs []event) string {
	evs = append([]event(nil), evs...)
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.slot != y.slot {
			return x.slot < y.slot
		}
		if x.node != y.node {
			return x.node < y.node
		}
		if x.name != y.name {
			return x.name < y.name
		}
		return x.value < y.value
	})
	h := fnv.New64a()
	for _, ev := range evs {
		fmt.Fprintf(h, "e%d.%d.%s.%d|", ev.slot, ev.node, ev.name, ev.value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// jsonHash returns the FNV-64a hash of v's JSON encoding.
func jsonHash(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("golden: encoding results: %v", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

var fileMu sync.Mutex

// Check compares got against the digest stored under key in the golden
// file of t's top-level test, or stores it there under -update-golden. An
// empty key means t's subtest path ("run" for a top-level test). Safe for
// parallel subtests.
func Check(t testing.TB, key string, got Digest) {
	t.Helper()
	name := strings.SplitN(t.Name(), "/", 2)
	if key == "" {
		key = "run"
		if len(name) == 2 {
			key = name[1]
		}
	}
	path := filepath.Join("testdata", name[0]+".golden.json")
	fileMu.Lock()
	defer fileMu.Unlock()
	all := map[string]Digest{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			t.Fatalf("golden: decoding %s: %v", path, err)
		}
	case !*Update:
		t.Fatalf("golden: %v (record with -update-golden)", err)
	}
	if *Update {
		all[key] = got
		out, err := json.MarshalIndent(all, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := all[key]
	if !ok {
		t.Fatalf("golden: %s has no case %q (record with -update-golden)", path, key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden %s[%q]:\n got  %+v\n want %+v", path, key, got, want)
	}
}
