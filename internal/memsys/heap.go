package memsys

import (
	"fmt"
	"sync"

	"unimem/internal/machine"
)

// ObjectID identifies a registered data object within one heap (rank).
type ObjectID int

// Chunk is the unit of placement and migration. Unpartitioned objects have
// exactly one chunk covering the whole object; partitionable objects have
// fixed-size chunks (§3.2 "Handling large data objects").
type Chunk struct {
	Obj *Object
	// ID is the chunk's dense per-heap identifier: chunks are numbered
	// 0, 1, 2, ... in allocation order and an ID is never reused, so
	// callers may index slices by it. IDs and names are in bijection
	// within one heap.
	ID    int
	Index int
	// Size is the simulated size in bytes.
	Size int64
	// SimAddr is the chunk's stable simulated virtual address, used by the
	// trace generators and counter emulation to attribute samples.
	SimAddr int64

	name   string
	tier   machine.TierKind
	offset int64 // offset within the current tier's arena
}

// Tier returns the tier the chunk currently resides in.
func (c *Chunk) Tier() machine.TierKind { return c.tier }

// Name returns "object" for single-chunk objects and "object[i]" otherwise.
// The string is built once, at allocation.
func (c *Chunk) Name() string { return c.name }

// Object is a registered target data object (§3: allocated via
// unimem_malloc). Its placement state is per chunk.
type Object struct {
	ID   ObjectID
	Name string
	// Size is the simulated total size in bytes.
	Size int64
	// Partitionable marks one-dimensional arrays with regular references
	// that Unimem's conservative chunking rule may split.
	Partitionable bool
	// RefHint is the static (compiler-analysis style) per-iteration
	// reference count estimate used for initial placement; zero means
	// "unknown before the main loop" (e.g. convergence-dependent counts).
	RefHint float64
	Chunks  []*Chunk
}

// BytesIn returns the number of the object's simulated bytes currently
// resident in tier k.
func (o *Object) BytesIn(k machine.TierKind) int64 {
	var n int64
	for _, c := range o.Chunks {
		if c.tier == k {
			n += c.Size
		}
	}
	return n
}

// InDRAM reports whether the entire object resides in the fastest tier.
func (o *Object) InDRAM() bool { return o.BytesIn(0) == o.Size }

// AllocOptions configures Heap.Alloc.
type AllocOptions struct {
	// Partitionable marks the object as chunkable; ChunkSize then gives the
	// chunk granularity (0 means the heap's default).
	Partitionable bool
	ChunkSize     int64
	// InitialTier is where the object is first placed; a full tier falls
	// back down the hierarchy toward the slowest. The paper's default is
	// the slowest tier (NVM); initial data placement (§3.2) may choose a
	// faster one.
	InitialTier machine.TierKind
	// RefHint is the static reference-count estimate (see Object.RefHint).
	RefHint float64
}

// MigrationStats accumulates the migration activity of one heap; the
// experiment harness aggregates them into the paper's Table 4.
type MigrationStats struct {
	Migrations    int
	BytesMigrated int64
	// ToDRAM counts promotions (moves to a faster tier) and ToNVM
	// demotions (moves to a slower tier); on two-tier machines these are
	// exactly the DRAM-bound and NVM-bound move counts.
	ToDRAM, ToNVM int
	// ToTier counts arrivals per destination tier (index = tier).
	ToTier         []int
	FailedNoSpace  int
	PointerRewrite int
}

// Heap is the per-rank object table and placement engine. Space in the
// faster, contended tiers is obtained through the shared per-node services;
// the slowest tier uses a private extent arena (it is large and
// contention-free in the paper's configurations).
type Heap struct {
	Mach *machine.Machine
	node *NodeTiers
	// allocs[t] is tier t's space manager: the node's shared service where
	// one exists, a private arena otherwise.
	allocs []tierAlloc
	// slowest is the private arena backing the last tier.
	slowest *Arena

	// mu guards placement state (chunk tiers/offsets, arenas, stats).
	// Within a run only the owning rank's goroutine touches the heap (the
	// mover applies migrations there, at its sync points), so the lock is
	// uncontended; it keeps the heap safe for concurrent callers outside
	// the harness.
	mu sync.RWMutex

	objects      []*Object
	byName       map[string]*Object
	nextChunkID  int
	nextSimAddr  int64
	defaultChunk int64
	// generation counts successful cross-tier moves: MoveChunk is the only
	// place a placed chunk changes tier, so an unchanged generation means
	// an unchanged placement.
	generation uint64

	Stats MigrationStats
}

// tierAlloc is one tier's space manager; both the shared NodeService and
// the private Arena satisfy it.
type tierAlloc interface {
	Alloc(size int64) (int64, error)
	Free(off, size int64)
}

// HeapOptions configures NewHeap.
type HeapOptions struct {
	// DefaultChunkSize is used for partitionable objects whose AllocOptions
	// leave ChunkSize zero (default 32 MiB).
	DefaultChunkSize int64
}

// NewHeap returns a heap for one rank on a node whose shared tiers are
// coordinated by node.
func NewHeap(m *machine.Machine, node *NodeTiers, opts HeapOptions) *Heap {
	if opts.DefaultChunkSize == 0 {
		opts.DefaultChunkSize = 32 << 20
	}
	h := &Heap{
		Mach:         m,
		node:         node,
		byName:       make(map[string]*Object),
		defaultChunk: opts.DefaultChunkSize,
		nextSimAddr:  1 << 12, // skip the simulated null page
	}
	h.allocs = make([]tierAlloc, m.NumTiers())
	for t := range h.allocs {
		if svc := node.Service(machine.TierKind(t)); svc != nil {
			h.allocs[t] = svc
			continue
		}
		a := NewArena(m.Tier(machine.TierKind(t)).CapacityBytes)
		h.allocs[t] = a
		if t == m.NumTiers()-1 {
			h.slowest = a
		}
	}
	h.Stats.ToTier = make([]int, m.NumTiers())
	return h
}

// DRAMService returns the node coordination service of the fastest tier.
func (h *Heap) DRAMService() *NodeService { return h.node.Service(0) }

// Objects returns the registered objects in allocation order.
func (h *Heap) Objects() []*Object { return h.objects }

// Lookup returns the object with the given name, or nil.
func (h *Heap) Lookup(name string) *Object { return h.byName[name] }

// Alloc registers a data object of size simulated bytes and places its
// chunks in opts.InitialTier, falling back tier by tier toward the slowest
// when a tier is full (which matches the runtime's slow-tier-by-default
// policy: on two-tier machines a full DRAM falls back to NVM).
func (h *Heap) Alloc(name string, size int64, opts AllocOptions) (*Object, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if size <= 0 {
		return nil, fmt.Errorf("memsys: object %q has invalid size %d", name, size)
	}
	if int(opts.InitialTier) < 0 || int(opts.InitialTier) >= h.Mach.NumTiers() {
		return nil, fmt.Errorf("memsys: object %q requests unknown tier %v (machine has %d tiers)",
			name, opts.InitialTier, h.Mach.NumTiers())
	}
	if _, dup := h.byName[name]; dup {
		return nil, fmt.Errorf("memsys: object %q already allocated", name)
	}
	o := &Object{
		ID:            ObjectID(len(h.objects)),
		Name:          name,
		Size:          size,
		Partitionable: opts.Partitionable,
		RefHint:       opts.RefHint,
	}
	chunkSize := size
	if opts.Partitionable {
		chunkSize = opts.ChunkSize
		if chunkSize == 0 {
			chunkSize = h.defaultChunk
		}
		if chunkSize > size {
			chunkSize = size
		}
	}
	for off := int64(0); off < size; off += chunkSize {
		cs := chunkSize
		if off+cs > size {
			cs = size - off
		}
		c := &Chunk{
			Obj:     o,
			ID:      h.nextChunkID + len(o.Chunks),
			Index:   len(o.Chunks),
			Size:    cs,
			SimAddr: h.nextSimAddr,
			name:    name,
		}
		if chunkSize < size {
			c.name = fmt.Sprintf("%s[%d]", name, c.Index)
		}
		h.nextSimAddr += cs
		placed := false
		var err error
		for k := opts.InitialTier; int(k) < h.Mach.NumTiers(); k++ {
			if err = h.place(c, k); err == nil {
				placed = true
				break
			}
		}
		if !placed {
			return nil, err
		}
		o.Chunks = append(o.Chunks, c)
	}
	h.nextChunkID += len(o.Chunks)
	h.objects = append(h.objects, o)
	h.byName[name] = o
	return o, nil
}

// place reserves tier space for a chunk that currently owns none.
func (h *Heap) place(c *Chunk, k machine.TierKind) error {
	if int(k) < 0 || int(k) >= len(h.allocs) {
		return fmt.Errorf("memsys: unknown tier %v", k)
	}
	off, err := h.allocs[k].Alloc(c.Size)
	if err != nil {
		return err
	}
	c.tier, c.offset = k, off
	return nil
}

// release returns the chunk's current tier reservation.
func (h *Heap) release(c *Chunk) {
	h.allocs[c.tier].Free(c.offset, c.Size)
}

// Free releases every chunk of the object and removes it from the table.
func (h *Heap) Free(o *Object) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byName[o.Name] != o {
		panic(fmt.Sprintf("memsys: freeing unknown object %q", o.Name))
	}
	for _, c := range o.Chunks {
		h.release(c)
	}
	delete(h.byName, o.Name)
	for i, oo := range h.objects {
		if oo == o {
			h.objects = append(h.objects[:i], h.objects[i+1:]...)
			break
		}
	}
}

// MoveChunk migrates the chunk to tier k: reserves space in the target
// tier, rewrites the chunk's residence (the pointer rewrite the runtime
// performs on behalf of the application), and releases the old
// reservation, bumping the placement generation. It returns the simulated
// bytes moved (0 if already resident) or ErrNoSpace if the target tier
// cannot hold the chunk; neither case changes the generation.
func (h *Heap) MoveChunk(c *Chunk, k machine.TierKind) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c.tier == k {
		return 0, nil
	}
	oldTier, oldOff := c.tier, c.offset
	if err := h.place(c, k); err != nil {
		c.tier, c.offset = oldTier, oldOff
		h.Stats.FailedNoSpace++
		return 0, err
	}
	h.generation++
	h.Stats.PointerRewrite++
	h.allocs[oldTier].Free(oldOff, c.Size)
	h.Stats.Migrations++
	h.Stats.BytesMigrated += c.Size
	if k < oldTier {
		h.Stats.ToDRAM++
	} else {
		h.Stats.ToNVM++
	}
	h.Stats.ToTier[k]++
	return c.Size, nil
}

// MoveObject migrates every chunk of the object to tier k, stopping at the
// first failure. It returns the simulated bytes moved.
func (h *Heap) MoveObject(o *Object, k machine.TierKind) (int64, error) {
	var moved int64
	for _, c := range o.Chunks {
		n, err := h.MoveChunk(c, k)
		moved += n
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// TierOf returns the chunk's current tier under the placement lock; use it
// instead of Chunk.Tier when another goroutine may be migrating.
func (h *Heap) TierOf(c *Chunk) machine.TierKind {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return c.tier
}

// Generation returns the heap's placement generation, under the placement
// lock: equal generations at two points bracket no chunk tier change.
func (h *Heap) Generation() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.generation
}

// TierResidencyBytes returns the simulated bytes of registered objects
// resident per tier (index = tier), under the placement lock.
func (h *Heap) TierResidencyBytes() []int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]int64, h.Mach.NumTiers())
	for _, o := range h.objects {
		for _, c := range o.Chunks {
			out[c.tier] += c.Size
		}
	}
	return out
}

// StatsSnapshot returns a copy of the migration statistics under the lock.
func (h *Heap) StatsSnapshot() MigrationStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.Stats
	s.ToTier = append([]int(nil), h.Stats.ToTier...)
	return s
}

// NVMUsed returns bytes currently allocated in this rank's private
// slowest-tier arena.
func (h *Heap) NVMUsed() int64 { return h.slowest.Used() }
