package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/server"
)

// reference checks served rulings against separate legal.Engines, one
// per doctrine the run may be served under. It renders the expected
// view the way the API documents it (server.EvaluateResponse's ruling,
// marshaled by encoding/json) — independently of the server's own
// codec — and compares hashes of the bytes.
//
// Rulings do not depend on the action name (no rule reads it), so the
// rendered view after the name is memoized per action shape; a sample of
// requests is re-derived from the full named action to keep that
// assumption checked.
type reference struct {
	in      *inputs
	seed    maphash.Seed
	engines []*legal.Engine
	tails   map[[2]int][]byte
	buf     []byte
	checked int
}

// sampleEvery is how often a memoized expectation is re-derived from the
// full named action.
const sampleEvery = 64

func newReference(in *inputs, seed maphash.Seed, doctrines ...legal.ContainerDoctrine) *reference {
	ref := &reference{in: in, seed: seed, tails: map[[2]int][]byte{}}
	for _, d := range doctrines {
		ref.engines = append(ref.engines, legal.NewEngine(legal.WithContainerDoctrine(d)))
	}
	return ref
}

const viewHead = `{"action":""`

// render marshals the API view of r with the action name left empty.
func render(r *legal.Ruling) ([]byte, error) {
	var er server.EvaluateResponse
	v := &er.Ruling
	v.Required = r.Required.String()
	v.Regime = r.Regime.String()
	v.NeedsProcess = r.NeedsProcess()
	v.Rationale = append(v.Rationale, r.Rationale...)
	for _, e := range r.Exceptions {
		v.Exceptions = append(v.Exceptions, e.String())
	}
	for _, c := range r.Citations {
		v.Citations = append(v.Citations, c.Title)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(b, []byte(viewHead)) {
		return nil, fmt.Errorf("ruling view does not start with %s", viewHead)
	}
	return b[len(viewHead):], nil
}

// tail returns the view bytes following the name for action a of shape
// s under doctrine d.
func (ref *reference) tail(s, d int, a legal.Action) ([]byte, error) {
	k := [2]int{s, d}
	if t, ok := ref.tails[k]; ok {
		return t, nil
	}
	r, err := ref.engines[d].Evaluate(a)
	if err != nil {
		return nil, fmt.Errorf("reference evaluate %q: %w", a.Name, err)
	}
	t, err := render(&r)
	if err != nil {
		return nil, err
	}
	ref.tails[k] = t
	return t, nil
}

func appendView(dst []byte, name string, tail []byte) []byte {
	dst = append(dst, `{"action":`...)
	nb, _ := json.Marshal(name) // a string always marshals
	dst = append(dst, nb...)
	return append(dst, tail...)
}

// sample re-derives one expectation from the full named action and
// reports a memo that disagrees.
func (ref *reference) sample(s, d int, a legal.Action) error {
	ref.checked++
	if ref.checked%sampleEvery != 0 {
		return nil
	}
	r, err := ref.engines[d].Evaluate(a)
	if err != nil {
		return err
	}
	full, err := render(&r)
	if err != nil {
		return err
	}
	memo, err := ref.tail(s, d, a)
	if err != nil {
		return err
	}
	if !bytes.Equal(full, memo) {
		return fmt.Errorf("reference ruling of %q depends on its name; the shape memo is unsound", a.Name)
	}
	return nil
}

// evaluateMatches reports whether h is the hash of a correct
// /v1/evaluate reply for key under any of the reference doctrines.
func (ref *reference) evaluateMatches(key int32, h uint64) (bool, error) {
	a := ref.in.evaluateAction(key)
	s := int(key) % len(ref.in.tmpl)
	for d := range ref.engines {
		t, err := ref.tail(s, d, a)
		if err != nil {
			return false, err
		}
		if err := ref.sample(s, d, a); err != nil {
			return false, err
		}
		ref.buf = appendView(ref.buf[:0], a.Name, t)
		ref.buf = append(ref.buf, "}\n"...)
		if maphash.Bytes(ref.seed, ref.buf) == h {
			return true, nil
		}
	}
	return false, nil
}

// batchMatches reports whether h is the hash of a correct
// /v1/evaluate/batch reply for batch b under any reference doctrine.
func (ref *reference) batchMatches(b int32, h uint64) (bool, error) {
	shapes := ref.in.slotShapes(nil, b)
	actions := ref.in.batchActions(b)
	for d := range ref.engines {
		ref.buf = append(ref.buf[:0], '[')
		for j, a := range actions {
			s := int(shapes[j])
			t, err := ref.tail(s, d, a)
			if err != nil {
				return false, err
			}
			if err := ref.sample(s, d, a); err != nil {
				return false, err
			}
			if j > 0 {
				ref.buf = append(ref.buf, ',')
			}
			ref.buf = appendView(ref.buf, a.Name, t)
		}
		ref.buf = append(ref.buf, "]}\n"...)
		if maphash.Bytes(ref.seed, ref.buf) == h {
			return true, nil
		}
	}
	return false, nil
}

// checkAuditor verifies the auditor's view of the ledger: every reply
// anchored on an earlier size carries a consistency proof that the new
// root extends the root it saw at that size.
func checkAuditor(cps []checkpointReply) []string {
	var bad []string
	roots := map[uint64][32]byte{}
	decode := func(s string) ([32]byte, bool) {
		var out [32]byte
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != len(out) {
			return out, false
		}
		copy(out[:], b)
		return out, true
	}
	for _, cp := range cps {
		root, ok := decode(cp.resp.Root)
		if !ok {
			bad = append(bad, fmt.Sprintf("checkpoint size %d: undecodable root", cp.resp.Size))
			continue
		}
		if prev, seen := roots[cp.resp.Size]; seen && prev != root {
			bad = append(bad, fmt.Sprintf("checkpoint size %d: two different roots", cp.resp.Size))
		}
		roots[cp.resp.Size] = root
	}
	for _, cp := range cps {
		if cp.since == 0 {
			continue
		}
		c := cp.resp.Consistency
		if c == nil || c.OldSize != cp.since || c.NewSize != cp.resp.Size {
			bad = append(bad, fmt.Sprintf("checkpoint since=%d: missing or mismatched consistency proof", cp.since))
			continue
		}
		p := ledger.ConsistencyProof{OldSize: c.OldSize, NewSize: c.NewSize}
		for _, s := range c.Path {
			h, ok := decode(s)
			if !ok {
				bad = append(bad, fmt.Sprintf("checkpoint since=%d: undecodable proof node", cp.since))
				break
			}
			p.Path = append(p.Path, h)
		}
		oldRoot, ok1 := roots[c.OldSize]
		newRoot, ok2 := roots[c.NewSize]
		if !ok1 || !ok2 || !ledger.VerifyConsistency(p, oldRoot, newRoot) {
			bad = append(bad, fmt.Sprintf("checkpoint %d -> %d: consistency proof does not verify", c.OldSize, c.NewSize))
		}
	}
	return bad
}

// checkLedger verifies one drained server's tenant ledger: the chain
// and index verify, and it holds exactly one sealed served-ruling record
// per 2xx evaluate or batch, one record per install (provisioning plus
// swaps) and the drain's final checkpoint.
func checkLedger(srv *server.Server, served, swaps int) (*ledger.Ledger, error) {
	t := srv.Registry().Get("default")
	if t == nil {
		return nil, fmt.Errorf("tenant default missing")
	}
	led := t.Ledger()
	if err := led.Verify(); err != nil {
		return nil, fmt.Errorf("ledger verify: %w", err)
	}
	counts := map[uint32]int{}
	for _, r := range led.Records() {
		if r.Kind != ledger.KindService {
			return nil, fmt.Errorf("ledger record %d has kind %v", r.Seq, r.Kind)
		}
		counts[r.Code]++
	}
	want := map[uint32]int{
		server.ServiceTenantCreated:    1,
		server.ServiceRulesInstalled:   1 + swaps,
		server.ServiceRulingServed:     served,
		server.ServiceCheckpointSealed: 1,
	}
	total := 0
	for code, n := range want {
		if counts[code] != n {
			return nil, fmt.Errorf("ledger holds %d records of code %d, want %d", counts[code], code, n)
		}
		total += n
	}
	if led.Len() != total {
		return nil, fmt.Errorf("ledger holds %d records, want %d", led.Len(), total)
	}
	return led, nil
}
