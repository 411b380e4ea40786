package stats

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) over a bounded pool of
// workers — the shared counting kernel behind parallel IND-Discovery,
// RHS-Discovery and the exhaustive baselines. workers < 0 selects
// GOMAXPROCS; workers 0 and 1 (or n < 2) degenerate to a plain loop, so
// serial callers pay nothing. fn must be safe to call concurrently and
// must confine its writes to index i (the usual "fill results[i]"
// pattern); completion of ForEach happens-after every fn call.
//
// Indexes are handed out in chunks — one atomic fetch-add claims a
// block of consecutive indexes — so tiny per-item work doesn't
// serialize every worker on the shared counter's cache line. The chunk
// size adapts to the job: large index spaces claim up to maxChunk at a
// time, while short ones (a few heavy checks) fall back toward 1 so no
// worker starves holding a big block.
func ForEach(n, workers int, fn func(i int)) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	const maxChunk = 64
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	} else if chunk > maxChunk {
		chunk = maxChunk
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(int64(chunk)) - int64(chunk)
				if lo >= int64(n) {
					return
				}
				hi := lo + int64(chunk)
				if hi > int64(n) {
					hi = int64(n)
				}
				for i := lo; i < hi; i++ {
					fn(int(i))
				}
			}
		}()
	}
	wg.Wait()
}
