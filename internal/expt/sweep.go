package expt

import (
	"context"

	"mcnet/internal/batch"
)

// sweep runs fn for every index of a flattened sweep grid (axes × seeds)
// across the experiment's worker pool and returns the results by index.
// fn's ctx is cancelled with Options.Ctx, so runs abort mid-schedule.
// Each runner folds the results in its original nested-loop order, so the
// emitted table is byte-identical to the serial sweep at every Parallel
// setting — the pool trades wall-clock time only.
func sweep[T any](o Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return batch.Map(o.ctx(), batch.Pool{Workers: o.Parallel}, n, fn)
}
