package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestWakeWheelUnit exercises the bucket structure directly: same-bucket
// entries with different revolutions, pop order stability, and count
// accounting.
func TestWakeWheelUnit(t *testing.T) {
	w := newWakeWheel(5)
	w.add(1, 5)
	w.add(2, 5+wheelBuckets) // same bucket, next revolution
	w.add(3, 5)
	w.add(4, 5+2*wheelBuckets) // same bucket, two revolutions out
	if due := w.pop(5, nil); !reflect.DeepEqual(due, []int32{1, 3}) {
		t.Fatalf("pop(5) = %v, want [1 3]", due)
	}
	w.add(0, 5+wheelBuckets) // joins the bucket behind the kept entries
	if due := w.pop(5+wheelBuckets, nil); !reflect.DeepEqual(due, []int32{2, 0}) {
		t.Fatalf("pop(+1 rev) = %v, want [2 0]", due)
	}
	if due := w.pop(5+2*wheelBuckets, nil); !reflect.DeepEqual(due, []int32{4}) {
		t.Fatalf("pop(+2 rev) = %v, want [4]", due)
	}
	if w.count != 0 {
		t.Fatalf("count = %d, want 0", w.count)
	}
	if due := w.pop(5, nil); len(due) != 0 {
		t.Fatalf("empty wheel pop = %v", due)
	}
	w.add(1, 6) // an emptied bucket takes new entries
	if due := w.pop(6, nil); !reflect.DeepEqual(due, []int32{1}) {
		t.Fatalf("pop(6) after reuse = %v, want [1]", due)
	}
}

// TestWakeWheelDifferential drives the wheel and a trivial reference (wake
// slot → nodes in registration order) through the engine's access pattern:
// per slot, pop the due nodes, then put some awake nodes to sleep. Spans
// mix short sleeps (dense same-bucket interleavings) with spans at and
// around whole revolutions, so each bucket holds entries of several
// revolutions at once.
func TestWakeWheelDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		w := newWakeWheel(n)
		ref := map[int][]int32{}
		asleep := make([]bool, n)
		var due []int32
		for slot := 0; slot < 6*wheelBuckets; slot++ {
			due = w.pop(slot, due[:0])
			want := ref[slot]
			delete(ref, slot)
			if len(due) != len(want) || (len(want) > 0 && !reflect.DeepEqual(due, want)) {
				t.Fatalf("seed %d slot %d: pop = %v, want %v", seed, slot, due, want)
			}
			for _, id := range due {
				asleep[id] = false
			}
			for i := 0; i < n; i++ {
				if asleep[i] || r.Intn(4) != 0 {
					continue
				}
				var span int
				switch r.Intn(4) {
				case 0:
					span = 1 + r.Intn(4)
				case 1:
					span = (1+r.Intn(3))*wheelBuckets + r.Intn(5) - 2
				case 2:
					span = 1 + r.Intn(5*wheelBuckets)
				default:
					span = 1 + r.Intn(64)
				}
				wake := slot + span
				w.add(i, wake)
				ref[wake] = append(ref[wake], int32(i))
				asleep[i] = true
			}
			sleeping := 0
			for _, ids := range ref {
				sleeping += len(ids)
			}
			if w.count != sleeping {
				t.Fatalf("seed %d slot %d: count = %d, want %d", seed, slot, w.count, sleeping)
			}
		}
	}
}

// TestWakeWheelAllocFree: after construction, add and pop never allocate,
// however the sleepers spread over buckets and revolutions.
func TestWakeWheelAllocFree(t *testing.T) {
	const n = 512
	w := newWakeWheel(n)
	due := make([]int32, 0, n)
	slot := 0
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			w.add(i, slot+1+i%7+(i%3)*wheelBuckets)
		}
		for end := slot + 3*wheelBuckets; slot < end; slot++ {
			due = w.pop(slot+1, due[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per add/pop round, want 0", allocs)
	}
	if w.count != 0 {
		t.Fatalf("count = %d after draining, want 0", w.count)
	}
}

// idlerStepper idles for a fixed number of slots, one slot at a time or in
// IdleFor batches of span, then powers down.
type idlerStepper struct {
	left, span int
}

func (s *idlerStepper) Step(sc *StepCtx) {
	if s.left <= 0 {
		sc.Done()
		return
	}
	k := s.span
	if k > s.left {
		k = s.left
	}
	sc.IdleFor(k)
	s.left -= k
}

// TestSteppedRunAllocFlat: a run of idling and sleeping nodes allocates
// the same whatever its length — no per-slot allocation, no wheel bucket
// growth.
func TestSteppedRunAllocFlat(t *testing.T) {
	const n = 64
	run := func(slots int) uint64 {
		e := NewEngine(chatterField(n), 1)
		steps := make([]Stepper, n)
		for i := range steps {
			steps[i] = &idlerStepper{left: slots, span: 1 + i%5*40}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := e.Run(steps)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got != slots {
			t.Fatalf("run took %d slots, want %d", got, slots)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run(100) // warm the field's lazily built state
	short, long := run(1000), run(20000)
	// A per-slot allocation of even one small object would add hundreds
	// of kilobytes over the 19k extra slots.
	if long > short+32<<10 {
		t.Fatalf("20k-slot run allocated %d B, 1k-slot run %d B: allocation grows with slots", long, short)
	}
}
