package exp

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"strings"
	"time"

	"fmt"
	"sync"

	"unimem/internal/app"
	"unimem/internal/machine"
	"unimem/internal/workloads"
)

// RunKey identifies one deterministic app.Run execution. Two runs with equal
// keys produce bit-identical *app.Result values (every stochastic input in
// the simulator flows from the seed through xrand), so the suite may execute
// the run once and share the result.
//
// The machine component is a performance fingerprint of the tier, CPU and
// network parameters rather than the Machine.Name: derivation chains such as
// dramMachineFor(PlatformA().WithNVMBandwidthFraction(0.5)) and
// dramMachineFor(PlatformA().WithNVMLatencyFactor(4)) yield differently
// named but physically identical platforms, and the cache must recognize
// them as the same DRAM-only baseline.
//
// RunKey is also the snapshot format's unit of versioning: every field is
// part of the persisted entry key, so a snapshot written by a build whose
// fingerprint or digest scheme differs simply never matches — stale entries
// age out through the LRU instead of serving wrong results.
type RunKey struct {
	// Workload is name|class|ranks|iterations of the (prep-applied)
	// workload; for built-in workloads all content is a pure function of
	// those four.
	Workload string
	// Spec is the content digest of the declarative scenario spec the
	// workload was compiled from ("" for built-ins): two scenarios that
	// share a name but differ anywhere in their spec — one schedule
	// entry is enough — must never share a cache entry.
	Spec string
	// Machine is the performance fingerprint from machineFingerprint.
	Machine string
	// Strategy identifies the placement policy ("static:dram-only",
	// "static:pin:lhs", "xmem", ...).
	Strategy string
	// Ranks, RPN, Seed and Chunk mirror the app.Options fields that
	// influence the run.
	Ranks int
	RPN   int
	Seed  uint64
	Chunk int64
}

// String renders the key as one stable line: every field in declaration
// order, "|"-separated. The shard hash operates on it.
func (k RunKey) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%d|%d",
		k.Workload, k.Spec, k.Machine, k.Strategy,
		k.Ranks, k.RPN, k.Seed, k.Chunk)
}

// keyFor builds the cache key for running w on m under the named placement
// strategy with the given options. w must already have prep applied (the
// key captures Quick mode through the iteration count).
func keyFor(w *workloads.Workload, m *machine.Machine, strategy string, opts app.Options) RunKey {
	return RunKey{
		Workload: fmt.Sprintf("%s|%s|%d|%d", w.Name, w.Class, w.Ranks, w.Iterations),
		Spec:     w.SpecDigest,
		Machine:  machineFingerprint(m),
		Strategy: strategy,
		Ranks:    opts.Ranks,
		RPN:      opts.RanksPerNode,
		Seed:     opts.Seed,
		Chunk:    opts.ChunkSize,
	}
}

// Fingerprint exposes the machine performance fingerprint to the serve
// pool, which shards sessions on it.
func Fingerprint(m *machine.Machine) string { return machineFingerprint(m) }

// machineFingerprint renders every Machine parameter that influences
// simulated time or capacity, deliberately excluding the display Name. The
// full ordered tier list is hashed — tier count included — so platforms
// that share a DRAM/NVM pair but differ in depth or in a middle tier
// (e.g. HBM+DDR vs HBM+DDR+NVM) can never collide on a cached baseline.
func machineFingerprint(m *machine.Machine) string {
	tier := func(t machine.TierSpec) string {
		return fmt.Sprintf("%g/%g/%g/%d", t.ReadLatNS, t.WriteLatNS, t.BandwidthBps, t.CapacityBytes)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "T%d", m.NumTiers())
	for i, t := range m.Tiers {
		fmt.Fprintf(&b, " t%d=%s", i, tier(t))
	}
	fmt.Fprintf(&b, " cp=%g cpu=%g fl=%g si=%d nl=%g nb=%g",
		m.CopyBandwidthBps, m.CPUFreqHz, m.FlopsPerSec, m.SampleIntervalCycles,
		m.NetLatencyNS, m.NetBandwidthBps)
	return b.String()
}

// cacheEntry is one memoized run. The done channel gives singleflight
// semantics: concurrent requests for the same key block on the first
// executor instead of duplicating the run. completed, size and elem are
// guarded by the owning shard's mutex; res and err are written once before
// done closes and read-only after.
type cacheEntry struct {
	key  RunKey
	done chan struct{}
	res  *app.Result
	err  error

	completed bool
	size      int64
	elem      *list.Element
	// completedAt stamps (unix nanoseconds) when the entry finished
	// executing — or, for snapshot-seeded entries, when the originating
	// node completed it. Snapshot merges resolve key conflicts by this
	// stamp: the newer completed run wins. Guarded by the shard mutex.
	completedAt int64
}

// cacheShardCount is the shard fan-out. Sixteen shards keep lock hold
// times negligible against the worker-pool widths the engine runs at
// (runs dominate; the cache is touched once per cell).
const cacheShardCount = 16

// cacheShard is one lock domain of the cache: a key map plus an LRU list
// (front = most recently used) and the shard's slice of every counter, all
// guarded by one mutex so a snapshot that holds the mutex is coherent.
type cacheShard struct {
	mu      sync.Mutex
	entries map[RunKey]*cacheEntry
	lru     *list.List
	bytes   int64

	hits      int64
	misses    int64
	evictions int64
	loaded    int64
}

// RunCache memoizes deterministic app.Run executions by RunKey. It is safe
// for concurrent use by the worker pool; a nil *RunCache disables
// memoization (every Do executes its function).
//
// The cache is sharded by key hash, optionally bounded (entry and byte
// budgets, least-recently-used eviction of completed entries), and
// persistable: SaveSnapshot/LoadSnapshot round-trip successful entries
// through a versioned on-disk format so a restarted server warm-starts
// (see persist.go).
//
// Results are shared by pointer: callers must treat a returned *app.Result
// as immutable. Errors are cached alongside results so a failing baseline
// fails every dependent cell identically in serial and parallel runs —
// except context cancellation: a run aborted by its caller's context is
// forgotten, never poisoning the key for callers with a live context.
type RunCache struct {
	shards [cacheShardCount]cacheShard

	// maxEntries/maxBytes are per-shard budgets (0: unbounded). The
	// global budget handed to NewRunCacheBounded is split evenly across
	// shards, so the bound is approximate for budgets near the shard
	// count (each shard holds at least one completed entry).
	maxEntries int
	maxBytes   int64
}

// NewRunCache returns an empty, unbounded cache — the configuration the
// experiment suite uses, where every baseline must stay resident for
// byte-identical serial-vs-parallel stdout.
func NewRunCache() *RunCache { return NewRunCacheBounded(0, 0) }

// NewRunCacheBounded returns an empty cache bounded by a total entry count
// and/or byte budget (0 disables the respective bound). Budgets are
// enforced per shard (total split across 16 shards, minimum one entry
// each), so small budgets are approximate; eviction is least-recently-used
// and never removes an in-flight entry.
func NewRunCacheBounded(maxEntries int, maxBytes int64) *RunCache {
	c := &RunCache{}
	if maxEntries > 0 {
		c.maxEntries = (maxEntries + cacheShardCount - 1) / cacheShardCount
	}
	if maxBytes > 0 {
		c.maxBytes = (maxBytes + cacheShardCount - 1) / cacheShardCount
	}
	for i := range c.shards {
		c.shards[i].entries = map[RunKey]*cacheEntry{}
		c.shards[i].lru = list.New()
	}
	return c
}

// shard maps a key to its lock domain.
func (c *RunCache) shard(key RunKey) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key.String()))
	return &c.shards[h.Sum32()%cacheShardCount]
}

// resultFootprint approximates the in-memory size of a memoized result for
// the byte budget: struct headers plus the per-rank and per-phase slices.
func resultFootprint(res *app.Result) int64 {
	if res == nil {
		return 64
	}
	n := int64(128) + int64(len(res.Workload)) + int64(len(res.Manager))
	n += int64(len(res.PhaseNS)) * 8
	for i := range res.Ranks {
		n += 96 + int64(len(res.Ranks[i].Migrations.ToTier))*8
	}
	return n
}

// isCtxErr reports whether err is a context cancellation or deadline —
// the caller-induced failures that must not be memoized.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do returns the memoized result for key, executing run exactly once per
// key across all callers. A caller that arrives while another is executing
// the same key blocks until that execution finishes and counts as a hit,
// or until its own context is cancelled. When the executing caller is
// itself cancelled mid-run, the entry is dropped and the next caller with
// a live context re-executes the run. A hit refreshes the entry's LRU
// position; a completed insertion may evict least-recently-used completed
// entries past the shard budget.
func (c *RunCache) Do(ctx context.Context, key RunKey, run func() (*app.Result, error)) (*app.Result, error) {
	res, _, err := c.DoInfo(ctx, key, run)
	return res, err
}

// DoInfo is Do reporting whether the result was served from a memoized
// (or in-flight) entry — the per-request hit/miss attribution the serve
// layer's latency histograms label by.
func (c *RunCache) DoInfo(ctx context.Context, key RunKey, run func() (*app.Result, error)) (*app.Result, bool, error) {
	if c == nil {
		res, err := run()
		return res, false, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sh := c.shard(key)
	for {
		sh.mu.Lock()
		if e, ok := sh.entries[key]; ok {
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()

			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if isCtxErr(e.err) {
				// The executor was cancelled and the entry dropped; retry under
				// our own context (which may itself be dead by now).
				if err := ctx.Err(); err != nil {
					return nil, false, err
				}
				continue
			}
			sh.mu.Lock()
			sh.hits++
			// Capture under the lock: a snapshot merge may replace a
			// completed entry's result pointer in place (seedResult), so an
			// unlocked read here would race with it.
			res, rerr := e.res, e.err
			sh.mu.Unlock()
			return res, true, rerr
		}
		e := &cacheEntry{key: key, done: make(chan struct{})}
		sh.entries[key] = e
		e.elem = sh.lru.PushFront(e)
		// The miss is counted at insertion, under the same lock that
		// creates the entry, so any coherent Stats snapshot observes
		// Entries+Evictions <= Misses+Loaded (never an entry whose miss
		// has not been recorded yet).
		sh.misses++
		sh.mu.Unlock()

		res, err := run()
		// Settle the entry's fate under the lock BEFORE waking waiters:
		// a cancelled entry must already be gone when its waiters retry
		// (they would otherwise spin on the stale entry until this
		// goroutine reacquired the lock), and a successful entry must be
		// fully accounted before a waiter can observe it.
		sh.mu.Lock()
		e.res, e.err = res, err
		if isCtxErr(e.err) {
			if sh.entries[key] == e {
				delete(sh.entries, key)
				sh.lru.Remove(e.elem)
			}
		} else {
			e.completed = true
			e.completedAt = time.Now().UnixNano()
			e.size = resultFootprint(e.res)
			sh.bytes += e.size
			c.evictLocked(sh)
		}
		sh.mu.Unlock()
		close(e.done)
		return res, false, err
	}
}

// evictLocked removes least-recently-used completed entries until the
// shard is within its budgets. In-flight entries (waiters blocked on them)
// are never evicted; if only in-flight entries remain the shard runs over
// budget until they complete. Callers hold sh.mu.
func (c *RunCache) evictLocked(sh *cacheShard) {
	over := func() bool {
		return (c.maxEntries > 0 && sh.lru.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && sh.bytes > c.maxBytes)
	}
	for over() {
		el := sh.lru.Back()
		for el != nil && !el.Value.(*cacheEntry).completed {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		sh.lru.Remove(el)
		delete(sh.entries, e.key)
		sh.bytes -= e.size
		sh.evictions++
	}
}

// seedResult is how a snapshot-load or merge installs an already-computed
// successful result as a completed entry. completedAt is the originating
// node's completion stamp (0: unknown — treated as older than any stamped
// entry). It counts as Loaded rather than a miss, respects the shard
// budgets, and resolves key conflicts conservatively:
//
//   - an in-flight local entry (waiters parked on it) is never touched;
//   - a completed local entry survives unless the incoming entry carries a
//     strictly newer completion stamp, in which case the incoming result
//     replaces it in place (newer completed run wins).
//
// It returns what happened: seedAdded, seedReplaced or seedSkipped.
func (c *RunCache) seedResult(key RunKey, res *app.Result, completedAt int64) seedOutcome {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prev, ok := sh.entries[key]; ok {
		if !prev.completed || prev.err != nil || prev.completedAt >= completedAt {
			return seedSkipped
		}
		// Replace in place: swap the result and re-account the byte budget;
		// the entry keeps its LRU position and its already-closed done
		// channel (concurrent readers that captured the old pointer keep a
		// consistent, immutable result — results are shared by pointer and
		// never mutated).
		size := resultFootprint(res)
		sh.bytes += size - prev.size
		prev.res, prev.size, prev.completedAt = res, size, completedAt
		sh.loaded++
		c.evictLocked(sh)
		return seedReplaced
	}
	e := &cacheEntry{key: key, done: closedChan, res: res, completed: true,
		size: resultFootprint(res), completedAt: completedAt}
	sh.entries[key] = e
	e.elem = sh.lru.PushFront(e)
	sh.bytes += e.size
	sh.loaded++
	c.evictLocked(sh)
	return seedAdded
}

// seedOutcome is seedResult's conflict-resolution verdict.
type seedOutcome int

const (
	seedSkipped seedOutcome = iota
	seedAdded
	seedReplaced
)

// closedChan is the pre-closed done channel of seeded entries.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Contains reports whether key currently has a completed entry, without
// blocking on in-flight runs — a residency probe for tests and capacity
// diagnostics (it does not refresh the entry's LRU position).
func (c *RunCache) Contains(key RunKey) bool {
	if c == nil {
		return false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	return ok && e.completed
}

// CacheStats is a point-in-time snapshot of cache effectiveness. The
// snapshot is coherent: every counter is read under the shard locks, so
// Entries+Evictions never exceeds Misses+Loaded (an entry exists only
// after its miss — or snapshot load — was recorded).
type CacheStats struct {
	// Hits counts Do calls served from a memoized (or in-flight) run.
	Hits int64 `json:"hits"`
	// Misses counts Do calls that executed their run function.
	Misses int64 `json:"misses"`
	// Entries is the number of distinct keys currently resident
	// (including in-flight runs).
	Entries int `json:"entries"`
	// Evictions counts completed entries removed by the LRU budgets.
	Evictions int64 `json:"evictions"`
	// Loaded counts entries seeded from a disk snapshot.
	Loaded int64 `json:"loaded"`
	// Bytes is the approximate footprint of resident completed entries.
	Bytes int64 `json:"bytes"`
}

// Stats takes a coherent snapshot of the cache counters: all shard locks
// are held while reading, so the totals are mutually consistent (a
// concurrent Do can never make the snapshot show an entry whose miss is
// missing, or a hit/miss total out of step with Entries).
func (c *RunCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var st CacheStats
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		sh := &c.shards[i]
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Entries += len(sh.entries)
		st.Evictions += sh.evictions
		st.Loaded += sh.loaded
		st.Bytes += sh.bytes
	}
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
	return st
}
