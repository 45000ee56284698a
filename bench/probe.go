package main

import (
	"crypto/sha256"
	"time"
)

// probe is a fixed piece of work that depends on nothing in the repository:
// a dependent pointer chase over a 64 MiB table (memory latency) and a
// SHA-256 over 32 MiB (arithmetic). The harness times it on its own CPU
// around every phase. The reference box's speed drifts — by up to half,
// for minutes at a time, as its neighbours come and go — and the probe's
// time says how fast the box was while a run's numbers were taken.
type probe struct {
	table []uint32
	block []byte
	sink  uint32
}

func newProbe() *probe {
	p := &probe{table: make([]uint32, 16<<20), block: make([]byte, 32<<20)}
	n := uint64(len(p.table))
	for i := range p.table {
		// An odd multiplier modulo a power of two permutes the indexes.
		p.table[i] = uint32((uint64(i)*2654435761 + 12345) % n)
	}
	return p
}

// run does the work once and returns how long it took, in milliseconds.
func (p *probe) run() float64 {
	start := time.Now()
	x := p.sink % uint32(len(p.table))
	for i := 0; i < 300_000; i++ {
		x = p.table[x]
	}
	sum := sha256.Sum256(p.block)
	p.sink = x + uint32(sum[0])
	return ms(time.Since(start))
}

// sample is the median of three runs.
func (p *probe) sample() float64 {
	return median([]float64{p.run(), p.run(), p.run()})
}
