package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// Service ledger event codes, carried in ledger.Record.Code on
// KindService records.
const (
	// ServiceTenantCreated seals a tenant's provisioning.
	ServiceTenantCreated uint32 = iota + 1
	// ServiceRulesInstalled seals a doctrine-table hot swap.
	ServiceRulesInstalled
	// ServiceRulingServed seals one served evaluation (or one batch).
	ServiceRulingServed
	// ServiceAdviceServed seals one served advisory.
	ServiceAdviceServed
	// ServiceCheckpointSealed is the final record the drain sequence
	// appends: its note carries the root of everything before it.
	ServiceCheckpointSealed
)

// RuleConfig is the wire form of a tenant's doctrine table: a container
// doctrine plus an optional selection over the named default rules.
// Predicates never travel over the wire — the server only ever compiles
// tables from the vetted rules it ships with, so a tenant can narrow or
// re-doctrine the table but not inject code.
type RuleConfig struct {
	// Container selects the closed-container doctrine: "per-file"
	// (Crist, the default) or "single" (Runyan/Beusch).
	Container string `json:"container,omitempty"`
	// Rules, when non-empty, keeps only the named default rules, in
	// default-table order. Unknown names are rejected.
	Rules []string `json:"rules,omitempty"`
	// Disable drops the named rules from the selection.
	Disable []string `json:"disable,omitempty"`
}

// compile builds a fresh engine from the config. The returned engine is
// fully constructed — dispatch index, counters — before anyone
// can observe it, which is what makes the registry's pointer swap safe.
func (c *RuleConfig) compile() (*legal.Engine, int, error) {
	doctrine := legal.ContainerPerFile
	switch c.Container {
	case "", "per-file":
	case "single":
		doctrine = legal.ContainerSingle
	default:
		return nil, 0, fmt.Errorf("unknown container doctrine %q (want per-file or single)", c.Container)
	}
	table := legal.DefaultRules()
	byName := make(map[string]int, len(table))
	for i, r := range table {
		byName[r.Name] = i
	}
	selected := table
	if len(c.Rules) > 0 {
		keep := make(map[int]bool, len(c.Rules))
		for _, name := range c.Rules {
			i, ok := byName[name]
			if !ok {
				return nil, 0, fmt.Errorf("unknown rule %q", name)
			}
			keep[i] = true
		}
		selected = selected[:0:0]
		for i, r := range table {
			if keep[i] {
				selected = append(selected, r)
			}
		}
	}
	if len(c.Disable) > 0 {
		drop := make(map[string]bool, len(c.Disable))
		for _, name := range c.Disable {
			if _, ok := byName[name]; !ok {
				return nil, 0, fmt.Errorf("unknown rule %q", name)
			}
			drop[name] = true
		}
		kept := selected[:0:0]
		for _, r := range selected {
			if !drop[r.Name] {
				kept = append(kept, r)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, 0, fmt.Errorf("rule selection is empty")
	}
	eng := legal.NewEngine(
		legal.WithRules(selected),
		legal.WithContainerDoctrine(doctrine),
		legal.WithEngineStats(),
	)
	return eng, len(selected), nil
}

// summary renders the config for a ledger note.
func (c *RuleConfig) summary(ruleCount int) string {
	var b strings.Builder
	if c.Container == "" {
		b.WriteString("container=per-file")
	} else {
		b.WriteString("container=" + c.Container)
	}
	fmt.Fprintf(&b, " rules=%d", ruleCount)
	if len(c.Disable) > 0 {
		b.WriteString(" disabled=" + strings.Join(c.Disable, ","))
	}
	return b.String()
}

// engineVersion is one immutable installed doctrine table. The tenant's
// atomic pointer swings between versions; a request loads the pointer
// once and evaluates entirely against that version, so a hot swap never
// mixes tables mid-request.
type engineVersion struct {
	Engine      *legal.Engine
	Revision    uint64
	RuleCount   int
	Config      RuleConfig
	InstalledAt time.Time
}

// Tenant is one isolated jurisdiction/agency: its own engine versions,
// rate limiter, and audit ledger.
type Tenant struct {
	ID string

	eng    atomic.Pointer[engineVersion]
	bucket *tokenBucket
	led    *ledger.Ledger
	spool  auditSpool
}

// auditSpool batches served-request audit drafts so the serving path
// pays a cheap slice append instead of a full sealed ledger append.
// The spool drains through ledger.AppendBatch — amortizing hashing and
// Merkle maintenance across records — at a size threshold and before
// every read of the ledger, so external observers always see a fully
// sealed ledger in arrival order.
type auditSpool struct {
	mu     sync.Mutex
	drafts []ledger.Draft
}

// spoolFlushThreshold is the spool size that triggers an inline drain.
// 64 records amortize the batch-seal setup well past the knee of the
// AppendBatch curve while keeping worst-case deferred work small.
const spoolFlushThreshold = 64

// Engine returns the tenant's current engine version. Callers must use
// the returned version for the whole request and never re-load
// mid-request.
func (t *Tenant) Engine() *engineVersion { return t.eng.Load() }

// Ledger returns the tenant's audit ledger, sealing any spooled audit
// drafts first so the caller observes every served request.
func (t *Tenant) Ledger() *ledger.Ledger {
	t.flushAudit()
	return t.led
}

// audit enqueues an audit draft for batched sealing. Enqueue order is
// preserved across flushes, and the draft's At timestamp records the
// event time regardless of when its batch seals.
func (t *Tenant) audit(d ledger.Draft) {
	t.spool.mu.Lock()
	t.spool.drafts = append(t.spool.drafts, d)
	if len(t.spool.drafts) >= spoolFlushThreshold {
		t.flushLocked()
	}
	t.spool.mu.Unlock()
}

// flushAudit seals any spooled audit drafts. Every path that reads the
// ledger or appends to it directly must flush first to keep record
// order faithful to arrival order.
func (t *Tenant) flushAudit() {
	t.spool.mu.Lock()
	t.flushLocked()
	t.spool.mu.Unlock()
}

func (t *Tenant) flushLocked() {
	if len(t.spool.drafts) > 0 {
		t.led.AppendBatch(t.spool.drafts)
		t.spool.drafts = t.spool.drafts[:0]
	}
}

// Registry holds the per-tenant engines. Lookups are lock-free on the
// read path (a sync.Map get plus one atomic pointer load); installs
// compile the new table outside any lock and publish it with a single
// pointer store, so in-flight requests finish on the version they
// loaded and new requests see the new table immediately — zero
// downtime, no half-installed state observable.
type Registry struct {
	tenants sync.Map // id -> *Tenant
	mu      sync.Mutex
	rev     atomic.Uint64
	now     func() time.Time
	rate    float64
	burst   float64
}

// NewRegistry returns an empty registry. rate/burst configure each
// tenant's token bucket (rate <= 0 disables per-tenant rate limiting).
func NewRegistry(rate, burst float64, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	return &Registry{now: now, rate: rate, burst: burst}
}

// Get returns the tenant, or nil when unknown.
func (r *Registry) Get(id string) *Tenant {
	if v, ok := r.tenants.Load(id); ok {
		return v.(*Tenant)
	}
	return nil
}

// Tenants returns the tenant IDs, sorted.
func (r *Registry) Tenants() []string {
	var ids []string
	r.tenants.Range(func(k, _ any) bool {
		ids = append(ids, k.(string))
		return true
	})
	sort.Strings(ids)
	return ids
}

// Install compiles cfg and publishes it as tenant id's doctrine table,
// creating the tenant on first install. The compile happens before the
// tenant or its ledger is touched; a config error leaves the previous
// version serving.
func (r *Registry) Install(id string, cfg RuleConfig) (*Tenant, *engineVersion, error) {
	if err := validTenantID(id); err != nil {
		return nil, nil, err
	}
	eng, ruleCount, err := cfg.compile()
	if err != nil {
		return nil, nil, err
	}
	// Serialize installs so revisions observed on any one tenant are
	// monotonic; the swap itself is still a single pointer store.
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.Get(id)
	created := t == nil
	if created {
		t = &Tenant{ID: id, led: ledger.New()}
		if r.rate > 0 {
			t.bucket = newTokenBucket(r.rate, r.burst, r.now)
		}
	}
	v := &engineVersion{
		Engine:      eng,
		Revision:    r.rev.Add(1),
		RuleCount:   ruleCount,
		Config:      cfg,
		InstalledAt: r.now(),
	}
	t.eng.Store(v)
	// Flush any spooled served-request drafts first so install records
	// land after everything served under the previous revision, then
	// seal the install's own records as one batch.
	t.flushAudit()
	var drafts [2]ledger.Draft
	n := 0
	if created {
		drafts[n] = ledger.Draft{
			At:      r.now().UnixNano(),
			Kind:    ledger.KindService,
			Code:    ServiceTenantCreated,
			Actor:   "lawgated",
			Subject: id,
			Note:    "tenant provisioned",
		}
		n++
	}
	drafts[n] = ledger.Draft{
		At:      r.now().UnixNano(),
		Kind:    ledger.KindService,
		Code:    ServiceRulesInstalled,
		Actor:   "lawgated",
		Subject: id,
		Note:    fmt.Sprintf("revision %d: %s", v.Revision, cfg.summary(ruleCount)),
	}
	n++
	t.led.AppendBatch(drafts[:n])
	if created {
		r.tenants.Store(id, t)
	}
	return t, v, nil
}

// validTenantID keeps tenant IDs path- and log-safe.
func validTenantID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("tenant id must be 1-64 characters")
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("tenant id %q: invalid character %q", id, c)
		}
	}
	return nil
}
