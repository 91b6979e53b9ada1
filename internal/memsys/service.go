package memsys

import (
	"unimem/internal/machine"

	"fmt"
	"sync"
)

// NodeService is the user-level DRAM coordination service of §3.3: each
// node runs one instance, and every MPI rank on the node requests DRAM
// space through it, so the aggregate DRAM allocation of all ranks stays
// within the node's DRAM allowance.
//
// Accounting is page-budget based rather than extent based: a real
// user-level service hands out virtually contiguous mappings backed by
// whatever physical DRAM pages are free, so object-sized allocations never
// fail from physical fragmentation — only from budget exhaustion. (The
// per-rank NVM arena keeps a real extent allocator; see Arena.)
type NodeService struct {
	mu       sync.Mutex
	capacity int64
	used     int64
}

// NewNodeService returns a service managing capacity bytes of node DRAM.
func NewNodeService(capacity int64) *NodeService {
	if capacity < 0 {
		panic("memsys: negative DRAM capacity")
	}
	return &NodeService{capacity: capacity}
}

// Alloc reserves size bytes of node DRAM, returning a placement cookie
// (always 0; kept for symmetry with Arena), or ErrNoSpace when the node's
// DRAM allowance is exhausted.
func (s *NodeService) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("memsys: invalid DRAM allocation size %d", size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used+size > s.capacity {
		return 0, ErrNoSpace
	}
	s.used += size
	return 0, nil
}

// Free releases a reservation made with Alloc. The off cookie is ignored.
func (s *NodeService) Free(off, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size <= 0 || s.used-size < 0 {
		panic(fmt.Sprintf("memsys: bad DRAM free of %d bytes (used %d)", size, s.used))
	}
	s.used -= size
}

// Used returns the bytes of node DRAM currently reserved.
func (s *NodeService) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity returns the node DRAM allowance.
func (s *NodeService) Capacity() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// Avail returns the bytes of node DRAM not currently reserved.
func (s *NodeService) Avail() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity - s.used
}

// NodeTiers is the per-node coordination state of an N-tier hierarchy: one
// NodeService per shared tier. Every tier except the slowest is
// node-coordinated (its capacity is a per-node allowance the ranks share,
// like the paper's DRAM service); the slowest tier is large and
// contention-free, so each rank keeps a private extent arena for it.
type NodeTiers struct {
	svcs []*NodeService
}

// NewNodeTiers returns the coordination services for one node of machine m:
// a NodeService for every tier but the slowest.
func NewNodeTiers(m *machine.Machine) *NodeTiers {
	n := m.NumTiers()
	svcs := make([]*NodeService, n)
	for t := 0; t < n-1; t++ {
		svcs[t] = NewNodeService(m.Tier(machine.TierKind(t)).CapacityBytes)
	}
	return &NodeTiers{svcs: svcs}
}

// Service returns tier k's node service, or nil when the tier is privately
// managed (the slowest tier, or an out-of-range index).
func (n *NodeTiers) Service(k machine.TierKind) *NodeService {
	if int(k) < 0 || int(k) >= len(n.svcs) {
		return nil
	}
	return n.svcs[k]
}
