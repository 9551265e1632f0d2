package main

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"lawgate/internal/server"
)

// rec is one request's accounting. Times are clock nanoseconds.
type rec struct {
	d        desc
	intended int64  // due (open loop) or send time (closed loop)
	sent     int64  // handed to the connections
	picked   int64  // a connection started sending it
	done     int64  // response fully read, or the request failed
	status   int32  // HTTP status; 0 = ended without one
	hash     uint64 // hash of the ruling part of a 200 evaluate/batch body
}

// checkpointReply is one auditor read as received, kept for the
// consistency check after the run.
type checkpointReply struct {
	since uint64
	resp  server.CheckpointResponse
}

// traffic is the client side of one serving run: the generated inputs,
// the per-request records, and what the auditor has seen.
type traffic struct {
	clk   clock
	in    *inputs
	book  *book
	hseed maphash.Seed

	// tagIDs adds the X-Bench-Id header that lets the traced handler
	// join server spans to client records (traced rounds only).
	tagIDs    bool
	oversized []byte
	poison    []byte

	lastSize atomic.Uint64
	cpMu     sync.Mutex
	cps      []checkpointReply
	cpErrs   []string
}

var (
	swapBodies = [2][]byte{[]byte(`{"container":"single"}`), []byte(`{"container":"per-file"}`)}
	malformed  = []byte(`{"Name": "broken`)
	rulingKey  = []byte(`"ruling":`)
	rulingsKey = []byte(`"rulings":`)
)

// send issues request id and fills its record from picked onwards.
func (c *conn) send(t *traffic, id int) {
	r := t.book.rec(id)
	method, path := "POST", "/v1/evaluate"
	var (
		body  []byte
		since uint64
	)
	switch r.d.op {
	case opEvaluate, opZeroDeadline:
		c.body = t.in.appendEvaluate(c.body[:0], r.d.key)
		body = c.body
	case opUnknownTenant:
		path = "/v1/evaluate?tenant=no-such"
		c.body = t.in.appendEvaluate(c.body[:0], r.d.key)
		body = c.body
	case opCheckpoint:
		method, path, body = "GET", "/v1/ledger/checkpoint", nil
		if since = t.lastSize.Load(); since > 0 {
			path += "?since=" + strconv.FormatUint(since, 10)
		}
	case opBatch:
		path = "/v1/evaluate/batch"
		c.body = t.in.appendBatch(c.body[:0], r.d.key)
		body = c.body
	case opSwap:
		method, path, body = "PUT", "/v1/tenants/default/rules", swapBodies[r.d.key%2]
	case opMalformed:
		body = malformed
	case opOversized:
		body = t.oversized
	case opPoison:
		body = t.poison
	}
	c.hdr = c.hdr[:0]
	if r.d.op == opZeroDeadline {
		c.hdr = append(c.hdr, "X-Lawgate-Deadline-Ms: 0\r\n"...)
	}
	if t.tagIDs {
		c.hdr = append(c.hdr, "X-Bench-Id: "...)
		c.hdr = strconv.AppendInt(c.hdr, int64(id), 10)
		c.hdr = append(c.hdr, "\r\n"...)
	}
	status, err := c.roundTrip(method, path, body)
	r.done = t.clk.now()
	if err != nil {
		return
	}
	r.status = int32(status)
	if status != 200 {
		return
	}
	b := c.resp
	switch r.d.op {
	case opEvaluate:
		r.hash = hashAfter(t.hseed, b, rulingKey)
	case opBatch:
		r.hash = hashAfter(t.hseed, b, rulingsKey)
	case opCheckpoint:
		t.auditorRead(since, b)
	}
}

// hashAfter hashes b from just past the first occurrence of key to the
// end — the ruling (or rulings array) plus the envelope's closing brace
// and newline. A body without key hashes to 0, which never matches.
func hashAfter(seed maphash.Seed, b, key []byte) uint64 {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0
	}
	return maphash.Bytes(seed, b[i+len(key):])
}

// auditorRead records a checkpoint reply and advances the size the next
// read anchors on.
func (t *traffic) auditorRead(since uint64, b []byte) {
	var cr server.CheckpointResponse
	err := json.Unmarshal(b, &cr)
	t.cpMu.Lock()
	defer t.cpMu.Unlock()
	if err != nil {
		t.cpErrs = append(t.cpErrs, "checkpoint reply: "+err.Error())
		return
	}
	t.cps = append(t.cps, checkpointReply{since: since, resp: cr})
	for {
		cur := t.lastSize.Load()
		if cr.Size <= cur || t.lastSize.CompareAndSwap(cur, cr.Size) {
			return
		}
	}
}

// openLoop sends requests lo..hi-1, already reserved, at a fixed rate
// over conns: arrival i is due at start+i*interval whether or not
// earlier requests have finished, and waits for a free connection when
// all are busy.
func (t *traffic) openLoop(conns []*conn, lo, hi int, start, interval int64) {
	// Sized to the number of sends, so the pacer never blocks on it.
	jobs := make(chan int, hi-lo)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for id := range jobs {
				t.book.rec(id).picked = t.clk.now()
				c.send(t, id)
			}
		}(c)
	}
	pace(t.clk, t.book, lo, hi, start, interval, jobs)
	wg.Wait()
}

// closedLoop sends requests from lo on, in order, over conns, each
// connection sending its next request when its previous reply is read,
// until request hi-1 is sent or the clock passes deadline (0: no
// deadline). It reserves requests as it goes and returns the end of the
// used range.
func (t *traffic) closedLoop(conns []*conn, lo, hi int, deadline int64) int {
	hi = min(hi, maxIDs)
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				now := t.clk.now()
				if deadline > 0 && now >= deadline {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				if !t.book.reserved(i) {
					t.book.reserve(min(i+reserveStep, hi))
				}
				r := t.book.rec(i)
				r.intended, r.sent, r.picked = now, now, now
				c.send(t, i)
			}
		}(c)
	}
	wg.Wait()
	// Every claimed index below hi was sent.
	return int(min(next.Load(), int64(hi)))
}
