// Package fixture builds the exact-search instances that the tests of the
// service, the cluster router and the command-line tools share, so that
// every package exercises the same search trees.
package fixture

import (
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Pipeline has n stages of work 100 + 37i and n − 1 files of size
// 40 + 11i.
func Pipeline(n int) *pipeline.Pipeline {
	work := make([]int64, n)
	files := make([]int64, n-1)
	for i := range work {
		work[i] = int64(100 + 37*i)
	}
	for i := range files {
		files[i] = int64(40 + 11*i)
	}
	p, err := pipeline.New(work, files)
	if err != nil {
		panic(err)
	}
	return p
}

// TwoSpeedPlatform has n processors on uniform links of bandwidth 100, the
// first half at speed 100 and the rest at 60. Two speed classes keep a
// real search tree: on a uniform platform the computation relaxation
// proves the greedy warm start optimal while the frontier is still expanding.
// Pipeline(8) on TwoSpeedPlatform(16) keeps over a hundred frontier roots
// and finishes in milliseconds; Pipeline(14) on TwoSpeedPlatform(56) runs
// for minutes, long enough to cancel.
func TwoSpeedPlatform(n int) *platform.Platform {
	p := platform.Uniform(n, 100, 100)
	for u := n / 2; u < n; u++ {
		p.Speeds[u] = 60
	}
	return p
}
