package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: the same
// pass costs up to a third more CPU time in one minute than in the next, as
// neighbours load the machine's cores, caches and memory. Process CPU time
// already leaves out the time the process waits; it cannot leave out work
// that runs slower. So every workload times a fixed reference block before
// its first pass and after each pass, and scales the run's CPU times by
// refNominal over the median of those samples: to the speed at which one
// reference block takes refNominal.
//
// The kernel is the benchmark's own and uses nothing of the repository, so
// no change to the program moves it. It runs on a settled heap and
// allocates nothing after start-up, so no garbage of the program is
// collected inside it. It mixes the kinds
// of work the workloads do: integer dynamic programming over a small
// matrix, dependent loads over a table larger than the caches' inner
// levels, a sort, and map inserts.

// refNominal is the reference block's CPU time at the speed all reported
// times are scaled to: its typical time on the machine the bounds were set
// on (2 vCPUs of an Intel Xeon at 2.1 GHz).
const refNominal = 225 * time.Millisecond

// refIters is the number of kernel runs in one reference block.
const refIters = 45

const (
	refN     = 96
	refTable = 1 << 19 // uint64s: 4 MB
	refKeys  = 1 << 14
)

// speedRef is the kernel's state, built once.
type speedRef struct {
	mat, dist [refN][refN]int64
	table     []uint64
	keys, buf []uint32
	m         map[uint32]uint32
	sink      uint64
}

var ref = newSpeedRef()

func newSpeedRef() *speedRef {
	r := &speedRef{table: make([]uint64, refTable), keys: make([]uint32, refKeys), buf: make([]uint32, refKeys), m: make(map[uint32]uint32, refKeys/2)}
	x := uint64(88172645463325252)
	for i := range r.mat {
		for j := range r.mat[i] {
			x = xorshift(x)
			r.mat[i][j] = int64(x % 1000)
		}
	}
	for i := range r.keys {
		x = xorshift(x)
		r.keys[i] = uint32(x)
	}
	// Touch the whole table now: its pages are then mapped at start-up, the
	// same way in every run, and not wherever the program's heap stands
	// when the first block runs.
	for i := range r.table {
		x = xorshift(x)
		r.table[i] = x
	}
	return r
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// work runs the kernel once.
func (r *speedRef) work() {
	r.dist = r.mat
	d := &r.dist
	for k := 0; k < refN; k++ {
		for i := 0; i < refN; i++ {
			dik := d[i][k]
			for j := 0; j < refN; j++ {
				if v := dik + d[k][j] - 500; v > d[i][j] {
					d[i][j] = v % 100_000
				}
			}
		}
	}
	x := r.sink | 1
	for i := 0; i < 1<<17; i++ {
		x = xorshift(x)
		j := (x ^ r.table[x%refTable]) % refTable
		r.table[j] += x
	}
	copy(r.buf, r.keys)
	slices.Sort(r.buf)
	clear(r.m)
	for i, k := range r.keys[:refKeys/2] {
		r.m[k] = uint32(i)
	}
	r.sink = x + uint64(d[7][9]) + uint64(r.buf[refKeys/3]) + uint64(len(r.m))
}

// refBlock runs the reference block on a settled heap and returns its CPU
// time.
func refBlock() time.Duration {
	settle()
	c := cpuTime()
	for i := 0; i < refIters; i++ {
		ref.work()
	}
	return cpuTime() - c
}
