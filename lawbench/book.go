package main

import (
	"sync"
	"sync/atomic"
)

// Request ids run in order over a whole serving run. Their records
// (and, in a traced run, their spans) live in fixed-size chunks that
// are allocated as ids are reserved, so a closed-loop phase, whose
// length depends on how fast the server is, never runs out of requests.
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 14
	// maxIDs bounds the ids of one run (~67 million requests).
	maxIDs = maxChunks * chunkSize
	// reserveStep is how many ids a closed loop reserves at a time.
	reserveStep = 256
)

type chunk struct {
	recs  [chunkSize]rec
	spans []span // chunkSize long in a traced run, else nil
}

// book holds a serving run's request records and spans by id.
type book struct {
	traced bool
	chunks [maxChunks]atomic.Pointer[chunk]

	mu  sync.Mutex
	gen func() desc
	// Ids below filled have a chunk and a desc from the current or an
	// earlier phase's generator.
	filled atomic.Int64
}

func (b *book) rec(id int) *rec {
	return &b.chunks[id>>chunkBits].Load().recs[id&(chunkSize-1)]
}

// span is a reserved id's span; only a traced run has spans.
func (b *book) span(id int) *span {
	return &b.chunks[id>>chunkBits].Load().spans[id&(chunkSize-1)]
}

// reserved reports whether id has a record.
func (b *book) reserved(id int) bool { return id >= 0 && int64(id) < b.filled.Load() }

// begin starts a phase at id lo: ids from lo on are reserved afresh,
// with descs drawn in order from gen. Call it only while no request of
// id lo or above is in flight.
func (b *book) begin(lo int, gen func() desc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen = gen
	b.filled.Store(int64(lo))
}

// reserve makes every id below hi (at most maxIDs) exist, with its desc.
func (b *book) reserve(hi int) {
	if int64(hi) <= b.filled.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for id := int(b.filled.Load()); id < hi; id++ {
		c := b.chunks[id>>chunkBits].Load()
		if c == nil {
			c = &chunk{}
			if b.traced {
				c.spans = make([]span, chunkSize)
			}
			b.chunks[id>>chunkBits].Store(c)
		}
		c.recs[id&(chunkSize-1)] = rec{d: b.gen()}
	}
	b.filled.Store(int64(hi))
}
