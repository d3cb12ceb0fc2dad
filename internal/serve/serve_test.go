package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcnet"
)

// smallSpec is the standard quick sweep used across the API tests:
// 2 loss × 2 jam points, 1 seed = 4 items on a 16-node crowd.
const smallSpec = `{"name": "api", "n": 16, "channels": 3, "loss": [0, 0.1], "jam": [0, 1], "seeds": 1}`

// newTestServer boots a server on a temp dir and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func submitSpec(t *testing.T, ts *httptest.Server, doc string) jobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) jobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s (%d/%d) after %v", id, st.State, st.Done, st.Total, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitRunDownload: the core happy path — submit, run to done,
// download results and the table; the table is byte-identical to an
// in-process RunScenario of the same spec.
func TestSubmitRunDownload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitSpec(t, ts, smallSpec)
	if st.Total != 4 || st.State != StateQueued {
		t.Fatalf("submit status %+v, want 4 items queued", st)
	}
	st = waitState(t, ts, st.ID, 2*time.Minute)
	if st.State != StateDone || st.Done != st.Total {
		t.Fatalf("terminal status %+v, want done 4/4", st)
	}

	// NDJSON download: one in-order line per item.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results content type %q", ct)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("results have %d lines, want 4", len(lines))
	}
	for i, ln := range lines {
		var rl resultLine
		if err := json.Unmarshal(ln, &rl); err != nil || rl.Index != i {
			t.Fatalf("line %d: %s (err %v)", i, ln, err)
		}
	}

	// Table identity with the in-process run.
	sp := testSpec(t, smallSpec)
	want, err := mcnet.RunScenario(context.Background(), sp, mcnet.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for format, golden := range map[string]string{"": want.Render(), "csv": want.CSV()} {
		url := ts.URL + "/v1/jobs/" + st.ID + "/table"
		if format != "" {
			url += "?format=" + format
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(got) != golden+"\n" {
			t.Errorf("served table (format %q) differs from RunScenario:\n%s---\n%s", format, got, golden)
		}
	}
}

// TestSubmitValidation: invalid documents, including ones above the spec
// size bounds, are rejected with 400 and a field-naming message before any
// expansion state is allocated; oversized bodies are rejected outright.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for doc, want := range map[string]string{
		`{"n": 1}`:                      `spec field \"n\"`,
		`{"n": 16, "loss": [7]}`:        `spec field \"loss[0]\"`,
		`{"n": 16, "jam_model": "x"}`:   `spec field \"jam_model\"`,
		`{"n": 16, "frobnicate": true}`: "frobnicate",
		`{"n": 65537}`:                  `spec field \"n\"`,
		`{"n": 16, "seeds": 65537}`:     `spec field \"seeds\"`,
		`not json`:                      "parsing",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %s: status %d, want 400", doc, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("doc %s: body %s does not mention %s", doc, body, want)
		}
	}
}

// TestAdmissionControl: submissions beyond the queue bound get 429 while
// the executor is busy, and the error names the bound.
func TestAdmissionControl(t *testing.T) {
	// Job 1 occupies the executor for seconds; job 2 fills the queue of 1;
	// job 3 must bounce.
	_, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	busy := submitSpec(t, ts, `{"n": 48, "loss": [0, 0.05, 0.1], "seeds": 2}`)
	// Wait until job 1 has left the queue (executor picked it up).
	deadline := time.Now().Add(time.Minute)
	for getStatus(t, ts, busy.ID).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	submitSpec(t, ts, smallSpec) // fills the queue
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d (%s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body %s does not explain the bound", body)
	}
}

// TestCancelQueuedAndRunning: a queued job cancels immediately and stays
// canceled; a running job stops between items with its durable prefix
// intact; double cancel conflicts.
func TestCancelQueuedAndRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 4})
	running := submitSpec(t, ts, `{"n": 48, "loss": [0, 0.05, 0.1], "seeds": 2}`)
	queued := submitSpec(t, ts, smallSpec)

	cancel := func(id string) (int, jobStatus) {
		resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st jobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}

	if code, st := cancel(queued.ID); code != http.StatusAccepted || st.State != StateCanceled {
		t.Fatalf("cancel queued: code %d state %s", code, st.State)
	}
	if code, _ := cancel(queued.ID); code != http.StatusConflict {
		t.Fatalf("double cancel: code %d, want 409", code)
	}

	if code, _ := cancel(running.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running: code %d", code)
	}
	st := waitState(t, ts, running.ID, time.Minute)
	if st.State != StateCanceled {
		t.Fatalf("running job ended %s, want canceled", st.State)
	}
	// Whatever landed stayed durable and in-order.
	results, err := s.store.LoadResults(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) > st.Total {
		t.Fatalf("%d results for %d items", len(results), st.Total)
	}
}

// TestEventsStream: SSE delivers monotonic progress snapshots ending in
// the terminal state, and a late subscriber gets the terminal event
// immediately.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitSpec(t, ts, smallSpec)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	events := readSSE(t, resp.Body, time.Minute)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Done != last.Total || last.Total != 4 {
		t.Fatalf("terminal event %+v, want done 4/4", last)
	}
	for k := 1; k < len(events); k++ {
		if events[k].Done < events[k-1].Done {
			t.Fatalf("SSE progress regressed: %+v", events)
		}
	}

	// Late subscriber: one terminal event, then the stream closes.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	late := readSSE(t, resp2.Body, time.Minute)
	if len(late) != 1 || late[0].State != StateDone {
		t.Fatalf("late subscriber events %+v, want exactly the terminal one", late)
	}
}

// readSSE parses "event:/data:" frames until the stream closes.
func readSSE(t *testing.T, r io.Reader, timeout time.Duration) []progressEvent {
	t.Helper()
	var events []progressEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev progressEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Errorf("bad SSE data %q: %v", data, err)
					return
				}
				events = append(events, ev)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("SSE stream did not close within %v", timeout)
	}
	return events
}

// TestStatsAndMetrics: after a completed job the counters line up and the
// metrics exposition carries every series.
func TestStatsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxQueue: 7})
	st := submitSpec(t, ts, smallSpec)
	waitState(t, ts, st.ID, 2*time.Minute)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap statsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.ItemsExecuted != 4 || snap.QueueDepth != 0 || snap.QueueCapacity != 7 {
		t.Errorf("stats %+v, want 4 executed, empty queue of 7", snap)
	}
	if snap.Jobs[StateDone] != 1 {
		t.Errorf("stats jobs %v, want one done", snap.Jobs)
	}
	if snap.RunsPerSecond <= 0 {
		t.Errorf("runs/s %v, want > 0", snap.RunsPerSecond)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"mcserved_items_executed_total 4",
		"mcserved_queue_depth 0",
		`mcserved_jobs{state="done"} 1`,
		"mcserved_runs_per_second",
		"mcserved_worker_utilization",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("metrics missing %q:\n%s", series, body)
		}
	}
}

// TestNotFoundAndConflict: unknown IDs 404 on every job endpoint, and the
// table of an unfinished job conflicts.
func TestNotFoundAndConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, ep := range []string{"", "/results", "/table", "/events"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/j99999999" + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job%s: status %d, want 404", ep, resp.StatusCode)
		}
	}
	st := submitSpec(t, ts, `{"n": 48, "loss": [0, 0.05, 0.1], "seeds": 2}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("table of unfinished job: status %d, want 409", resp.StatusCode)
	}
}

// TestListOrder: jobs list in submission order with live fields.
func TestListOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 8})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitSpec(t, ts, smallSpec).ID)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(out.Jobs))
	}
	for i, j := range out.Jobs {
		if j.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s", i, j.ID, ids[i])
		}
	}
}

// TestDrainRejectsSubmissions: a draining server refuses new work with
// 503 and Drain returns once the executor is idle.
func TestDrainRejectsSubmissions(t *testing.T) {
	s, err := NewServer(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(smallSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}
