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
	"runtime"
	"testing"
	"time"

	"mcnet"
)

// resumeSpec is sized so a sweep takes long enough to interrupt mid-job:
// 3 loss × 2 jam points × 8 seeds = 48 items on a 48-node crowd.
const resumeSpec = `{"name": "resume", "n": 48, "channels": 3, "loss": [0, 0.05, 0.1], "jam": [0, 1], "seeds": 8}`

// TestCrashResumeDeterminism is the service's core guarantee: a job killed
// mid-sweep and resumed by a fresh daemon on the same state directory
// produces a result table byte-identical to an uninterrupted in-process
// run — at every worker count.
func TestCrashResumeDeterminism(t *testing.T) {
	sp := testSpec(t, resumeSpec)
	golden, err := mcnet.RunScenario(context.Background(), sp, mcnet.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 48

	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()

			// First daemon: submit, let some items land durably, then drain
			// mid-job — the clean-shutdown equivalent of a kill: the job stays
			// in running state on disk with a durable result prefix.
			s1, err := NewServer(Config{Dir: dir, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1)
			st := submitSpec(t, ts1, resumeSpec)
			if st.Total != total {
				t.Fatalf("job has %d items, want %d", st.Total, total)
			}
			deadline := time.Now().Add(2 * time.Minute)
			for {
				cur := getStatus(t, ts1, st.ID)
				if cur.Done >= 1 {
					break
				}
				if cur.State.terminal() {
					t.Fatalf("job finished (%s) before it could be interrupted; grow the spec", cur.State)
				}
				if time.Now().After(deadline) {
					t.Fatal("no item landed within 2m")
				}
				time.Sleep(time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			if err := s1.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			ts1.Close()

			// The interrupted job is in running state on disk with a strict
			// durable prefix — exactly what a kill -9 between fsyncs leaves.
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := store.LoadJob(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if rec.State != StateRunning {
				t.Fatalf("interrupted job persisted as %s, want running", rec.State)
			}
			prefix, err := store.LoadResults(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(prefix) == 0 || len(prefix) >= total {
				t.Fatalf("durable prefix has %d/%d items; want a partial sweep", len(prefix), total)
			}
			t.Logf("interrupted with %d/%d items durable", len(prefix), total)

			// Second daemon on the same directory: the job resumes without
			// resubmission and runs to done.
			s2, err := NewServer(Config{Dir: dir, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(s2)
			defer func() {
				ts2.Close()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = s2.Drain(ctx)
			}()
			fin := waitState(t, ts2, st.ID, 5*time.Minute)
			if fin.State != StateDone || fin.Done != total {
				t.Fatalf("resumed job ended %+v, want done %d/%d", fin, total, total)
			}
			if got := s2.itemsResumed.Load(); got != int64(len(prefix)) {
				t.Errorf("resumed-items counter = %d, want %d", got, len(prefix))
			}

			// The table is byte-identical to the uninterrupted in-process run.
			resp, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/table")
			if err != nil {
				t.Fatal(err)
			}
			table, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(table) != golden.Render()+"\n" {
				t.Errorf("resumed table differs from uninterrupted run:\n%s---\n%s", table, golden.Render())
			}

			// And the NDJSON log holds exactly one line per item, in order.
			data, err := os.ReadFile(store.ResultsPath(st.ID))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			for i := 0; i < total; i++ {
				var rl resultLine
				if err := dec.Decode(&rl); err != nil {
					t.Fatalf("result line %d: %v", i, err)
				}
				if rl.Index != i {
					t.Fatalf("result line %d has index %d", i, rl.Index)
				}
			}
			if dec.More() {
				t.Error("result log has extra lines beyond the sweep")
			}
		})
	}
}
