package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcnet"
)

func testSpec(t *testing.T, doc string) mcnet.ScenarioSpec {
	t.Helper()
	sp, err := mcnet.ParseScenarioSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestStoreJobRoundTrip: records survive save/load, list in submission
// order, and the ID sequence continues across a reopen.
func TestStoreJobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, `{"n": 16, "loss": [0, 0.1]}`)
	var ids []string
	for i := 0; i < 3; i++ {
		rec := &JobRecord{
			ID:        s.NewID(),
			Spec:      spec,
			State:     StateQueued,
			Items:     2,
			Submitted: time.Unix(1700000000+int64(i), 0).UTC(),
		}
		if err := s.SaveJob(rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	recs, err := s.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d jobs, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.ID != ids[i] {
			t.Errorf("job %d has ID %s, want %s (submission order)", i, rec.ID, ids[i])
		}
		if rec.Spec.N != 16 || rec.State != StateQueued {
			t.Errorf("job %s lost fields: %+v", rec.ID, rec)
		}
	}

	// Reopening must not reuse IDs.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	next := s2.NewID()
	for _, id := range ids {
		if next == id {
			t.Fatalf("reopened store reissued ID %s", id)
		}
	}
}

// TestStoreRejectsBadIDs: crafted IDs cannot traverse out of the store.
func TestStoreRejectsBadIDs(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "../../etc", "j1234567x", "jjjjjjjjj", "j123"} {
		if err := s.SaveJob(&JobRecord{ID: id}); err == nil {
			t.Errorf("SaveJob accepted ID %q", id)
		}
		if _, err := s.LoadResults(id); err == nil {
			t.Errorf("LoadResults accepted ID %q", id)
		}
	}
}

// TestResultLogPrefixAndTornTail: the log is a strict in-order prefix; a
// torn tail (crash mid-append) is truncated away on load and appending
// resumes at the durable frontier.
func TestResultLogPrefixAndTornTail(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := s.NewID()
	log, err := s.OpenResultLog(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := log.Append(i, mcnet.RunResult{Informed: 10 + i, Nodes: 16}); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order appends are a bug, not data.
	if err := log.Append(5, mcnet.RunResult{}); err == nil {
		t.Error("out-of-order append accepted")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn, unterminated tail line.
	f, err := os.OpenFile(s.ResultsPath(id), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":3,"result":{"torntail`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	results, err := s.LoadResults(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("durable prefix has %d items, want 3", len(results))
	}
	for i, r := range results {
		if r.Informed != 10+i {
			t.Errorf("result %d = %+v, want Informed %d", i, r, 10+i)
		}
	}

	// The torn tail is gone from disk and appending continues cleanly.
	data, err := os.ReadFile(s.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "torntail") {
		t.Error("torn tail survived repair")
	}
	log2, err := s.OpenResultLog(id, len(results))
	if err != nil {
		t.Fatal(err)
	}
	if err := log2.Append(3, mcnet.RunResult{Informed: 13, Nodes: 16}); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	results, err = s.LoadResults(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || results[3].Informed != 13 {
		t.Fatalf("after repair+append: %d items (%+v), want 4", len(results), results)
	}
}

// TestLoadResultsMissing: a job with no log has an empty durable prefix.
func TestLoadResultsMissing(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.LoadResults(s.NewID())
	if err != nil || len(results) != 0 {
		t.Fatalf("missing log: results %v, err %v; want empty, nil", results, err)
	}
}

// TestStoreResumesLegacyExecSpec: a job persisted while specs still
// carried a since-removed field ("exec", "colorer") loads — the store
// decodes records leniently — and a fresh daemon resumes it to the table an
// in-process run produces, while the strict wire parser rejects the same
// key.
func TestStoreResumesLegacyExecSpec(t *testing.T) {
	for _, f := range []struct{ key, value string }{{"exec", "goroutines"}, {"colorer", "dplus1"}} {
		t.Run(f.key, func(t *testing.T) {
			doc := fmt.Sprintf(`{"name": "legacy", "n": 16, "loss": [0, 0.1], %q: %q}`, f.key, f.value)
			if _, err := mcnet.ParseScenarioSpec([]byte(doc)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", f.key)) {
				t.Fatalf("ParseScenarioSpec on a spec with %s: err = %v, want an unknown-field error", f.key, err)
			}
			resumeLegacy(t, doc)
		})
	}
}

// resumeLegacy persists doc as a running job, resumes it on a fresh daemon
// and compares the table with an in-process run of the same sweep.
func resumeLegacy(t *testing.T, doc string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := s.NewID()
	rec := fmt.Sprintf(`{"id": %q, "spec": %s, "state": "running", "items": 2, "submitted": "2024-01-01T00:00:00Z"}`, id, doc)
	if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), []byte(rec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.LoadJob(id)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Spec.Name != "legacy" || loaded.Spec.N != 16 || loaded.State != StateRunning {
		t.Fatalf("legacy record loaded as %+v", loaded)
	}

	srv, err := NewServer(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx)
	}()
	fin := waitState(t, ts, id, time.Minute)
	if fin.State != StateDone || fin.Done != 2 {
		t.Fatalf("legacy job ended %+v, want done 2/2", fin)
	}

	want, err := mcnet.RunScenario(context.Background(), testSpec(t, `{"name": "legacy", "n": 16, "loss": [0, 0.1]}`), mcnet.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(table) != want.Render()+"\n" {
		t.Errorf("resumed legacy table differs from an in-process run:\n%s---\n%s", table, want.Render())
	}
}

// FuzzLoadResults fuzzes the torn-tail recovery of a job's NDJSON result
// log. Whatever the file holds, loading must not fail or panic, must leave
// on disk a byte prefix of the original whose lines decode in index order
// to exactly the returned results, and a reload must return the same
// prefix.
func FuzzLoadResults(f *testing.F) {
	var good bytes.Buffer
	for i := 0; i < 3; i++ {
		line, err := json.Marshal(resultLine{Index: i, Result: mcnet.RunResult{Informed: 10 + i, Nodes: 16}})
		if err != nil {
			f.Fatal(err)
		}
		good.Write(append(line, '\n'))
	}
	f.Add(good.Bytes())
	f.Add(append(bytes.Clone(good.Bytes()), `{"index":3,"result":{"torntail`...))
	f.Add([]byte(`{"index":1,"result":{}}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		id := s.NewID()
		if err := os.WriteFile(s.ResultsPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadResults(id)
		if err != nil {
			t.Fatalf("LoadResults: %v", err)
		}
		kept, err := os.ReadFile(s.ResultsPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatal("recovery rewrote the log instead of truncating it")
		}
		lines := bytes.SplitAfter(kept, []byte("\n"))
		if last := len(lines) - 1; len(lines[last]) == 0 {
			lines = lines[:last]
		}
		if len(lines) != len(got) {
			t.Fatalf("%d durable lines, %d results", len(lines), len(got))
		}
		for i, ln := range lines {
			var rl resultLine
			if !bytes.HasSuffix(ln, []byte("\n")) || json.Unmarshal(ln, &rl) != nil || rl.Index != i {
				t.Fatalf("durable line %d is not index %d: %q", i, i, ln)
			}
			if !reflect.DeepEqual(rl.Result, got[i]) {
				t.Fatalf("result %d = %+v, line decodes to %+v", i, got[i], rl.Result)
			}
		}
		again, err := s.LoadResults(id)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("reload: %+v, %v; want %+v", again, err, got)
		}
	})
}
