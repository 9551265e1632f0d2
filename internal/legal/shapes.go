package legal

import (
	"slices"
	"sync"
)

// The shape table. A ruling is the caller's Action plus a shape:
// Required, Regime, Exceptions, Privacy, Rationale, Citations and
// Applied. The shape is a pure function of the fired rules and the enum
// values they format, so a rule table yields only a few distinct shapes
// (36 per doctrine over the exhaustive combo × variant sweep) however
// many distinct actions it rules. Every evaluation walks its dispatch
// bucket into a reused scratch and looks the scratch up here: a hit
// returns the interned shape's shared, immutable slices; a miss copies
// the scratch into exact-size slices once and inserts them. Memory is
// therefore bounded by the rule table, not by the action stream, and
// building a ruling costs no allocation once its shape has been seen.
//
// Two bounds keep hostile input from minting shapes without limit.
// Validate accepts repeated exposure facts, each adding a Privacy reason,
// so every run length is a new shape: the table stops inserting at
// maxShapes entries, and a shape with more than maxShapeParts slice
// elements is never interned. Past either bound a miss simply returns
// its own compacted copy — the ruling is identical either way.

const (
	// maxShapes bounds the number of interned shapes per engine.
	maxShapes = 4096
	// maxShapeParts bounds the slice elements of one interned shape
	// (Table 1 shapes hold a few dozen).
	maxShapeParts = 256
)

// shapeTable interns ruling shapes by content. Entries are immutable
// once inserted; readers share the lock, writers serialize on it.
type shapeTable struct {
	mu sync.RWMutex
	m  map[uint64]*shapeEntry
	n  int
}

// shapeEntry is one interned shape (a Ruling whose Action is zero) and
// the chain link for shapes whose hashes collide.
type shapeEntry struct {
	r    Ruling
	next *shapeEntry
}

// intern returns the interned shape equal to src's (src.Action is
// ignored), inserting a compacted copy on a miss. The result's Action
// is zero, and the result is shared: the caller copies it out.
func (t *shapeTable) intern(src *Ruling) *Ruling {
	h := hashShape(src)
	t.mu.RLock()
	s, full := t.lookup(h, src), t.n >= maxShapes
	t.mu.RUnlock()
	if s != nil {
		return &s.r
	}
	s = &shapeEntry{r: compactShape(src)}
	if full || shapeParts(&s.r) > maxShapeParts {
		return &s.r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.lookup(h, src); old != nil {
		return &old.r
	}
	if t.n < maxShapes {
		if t.m == nil {
			t.m = make(map[uint64]*shapeEntry)
		}
		s.next = t.m[h]
		t.m[h] = s
		t.n++
	}
	return &s.r
}

// lookup finds src's shape in the chain for h; the caller holds mu.
func (t *shapeTable) lookup(h uint64, src *Ruling) *shapeEntry {
	for s := t.m[h]; s != nil; s = s.next {
		if sameShape(&s.r, src) {
			return s
		}
	}
	return nil
}

// compactShape copies src's shape into exact-size slices. Empty slices
// become nil, matching what the reference walk (evaluateLinear) builds,
// so interned and reference rulings are DeepEqual.
func compactShape(src *Ruling) Ruling {
	r := Ruling{
		Required:   src.Required,
		Regime:     src.Regime,
		Exceptions: clip(src.Exceptions),
		Rationale:  clip(src.Rationale),
		Citations:  clip(src.Citations),
		Applied:    clip(src.Applied),
	}
	if p := src.Privacy; p != nil {
		r.Privacy = &PrivacyFinding{
			Reasonable: p.Reasonable,
			Reasons:    clip(p.Reasons),
			Citations:  clip(p.Citations),
		}
	}
	return r
}

// clip returns an exact-size copy of s, or nil when s is empty.
func clip[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// shapeParts counts the slice elements a shape holds.
func shapeParts(r *Ruling) int {
	n := len(r.Exceptions) + len(r.Rationale) + len(r.Citations) + len(r.Applied)
	if p := r.Privacy; p != nil {
		n += len(p.Reasons) + len(p.Citations)
	}
	return n
}

// sameShape reports whether a and b have equal shapes.
func sameShape(a, b *Ruling) bool {
	if a.Required != b.Required || a.Regime != b.Regime ||
		!slices.Equal(a.Exceptions, b.Exceptions) ||
		!slices.Equal(a.Rationale, b.Rationale) ||
		!slices.Equal(a.Citations, b.Citations) ||
		!slices.Equal(a.Applied, b.Applied) {
		return false
	}
	p, q := a.Privacy, b.Privacy
	if p == nil || q == nil {
		return p == q
	}
	return p.Reasonable == q.Reasonable &&
		slices.Equal(p.Reasons, q.Reasons) &&
		slices.Equal(p.Citations, q.Citations)
}

// shapeMul is the multiplier folding one part into a shape hash.
const shapeMul = 0x9e3779b97f4a7c15

// hashShape hashes a shape for the table's map. It samples each string
// (see strHash) rather than reading it whole: a collision costs one
// sameShape compare, never a wrong ruling.
func hashShape(r *Ruling) uint64 {
	h := uint64(r.Required)<<8 | uint64(r.Regime)
	h = h*shapeMul + uint64(len(r.Exceptions))
	for _, x := range r.Exceptions {
		h = h*shapeMul + uint64(x)
	}
	h = hashStrings(h, r.Rationale)
	h = hashStrings(h, r.Applied)
	h = h*shapeMul + uint64(len(r.Citations))
	for i := range r.Citations {
		h = h*shapeMul + strHash(r.Citations[i].ID)
	}
	if p := r.Privacy; p != nil {
		h = h*shapeMul + 1
		if p.Reasonable {
			h++
		}
		h = hashStrings(h, p.Reasons)
		h = h*shapeMul + uint64(len(p.Citations))
		for i := range p.Citations {
			h = h*shapeMul + strHash(p.Citations[i].ID)
		}
	}
	return mix64(h)
}

// hashStrings folds a string sequence, length first, into h.
func hashStrings(h uint64, ss []string) uint64 {
	h = h*shapeMul + uint64(len(ss))
	for _, s := range ss {
		h = h*shapeMul + strHash(s)
	}
	return h
}

// strHash samples s: its length plus its first and last 8 bytes, which
// covers strings up to 16 bytes in full. Rationale lines are mostly
// sentence-length constants that differ in length or at an end.
func strHash(s string) uint64 {
	n := len(s)
	h := uint64(n)
	if n < 8 {
		for i := 0; i < n; i++ {
			h = h<<8 | uint64(s[i])
		}
		return h
	}
	return h ^ le64(s, 0)*0xbf58476d1ce4e5b9 ^ le64(s, n-8)*0xff51afd7ed558ccd
}

// le64 loads eight little-endian bytes of s at i (the compiler combines
// the byte loads into one 8-byte load).
func le64(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
