package state

import "sync"

// Tier identifies where a cached state's amplitudes live in the simulated
// memory hierarchy. The paper (§4.1.4) caches the post-ansatz state in GPU
// memory and "seamlessly transitions to CPU memory storage" when the state
// exceeds device capacity; we reproduce that policy with an accounting
// model over ordinary RAM.
type Tier int

const (
	// TierDevice models fast accelerator memory.
	TierDevice Tier = iota
	// TierHost models system memory reached over the interconnect.
	TierHost
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	if t == TierDevice {
		return "device"
	}
	return "host"
}

// CacheStats records cache traffic for the ablation benchmarks.
type CacheStats struct {
	Puts        int
	Hits        int
	Misses      int
	DeviceHits  int
	HostHits    int
	HostSpills  int    // snapshots that had to be placed on the host tier
	BytesStored uint64 // size of the snapshot held
}

// Cache holds one post-ansatz snapshot: a snapshot serves the energy
// evaluation that stored it and no later one, so each Put replaces the
// last. Device capacity is a simulated budget: a snapshot larger than it
// lives on the host tier. The zero value is not usable; call NewCache.
type Cache struct {
	mu             sync.Mutex
	deviceCapacity uint64       // bytes; 0 = unlimited device tier
	amps           []complex128 // the snapshot; empty until the first Put
	tier           Tier
	stats          CacheStats
}

// NewCache creates a cache with the given simulated device capacity in
// bytes (0 = unlimited).
func NewCache(deviceCapacityBytes uint64) *Cache {
	return &Cache{deviceCapacity: deviceCapacityBytes}
}

// Put snapshots the state's amplitudes in place of the previous snapshot,
// on the device tier if they fit its capacity and on the host tier if not.
func (c *Cache) Put(s *State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.amps = append(c.amps[:0], s.amps...)
	size := uint64(len(s.amps)) * BytesPerAmp
	c.stats.Puts++
	c.stats.BytesStored = size
	c.tier = TierDevice
	if c.deviceCapacity != 0 && size > c.deviceCapacity {
		c.tier = TierHost
		c.stats.HostSpills++
	}
}

// Restore copies the snapshot into dst and returns the tier it was served
// from. ok is false on a miss — nothing stored, or a snapshot of another
// width — and dst is then untouched.
func (c *Cache) Restore(dst *State) (Tier, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.amps) != len(dst.amps) {
		c.stats.Misses++
		return TierDevice, false
	}
	copy(dst.amps, c.amps)
	dst.dropSupport()
	c.stats.Hits++
	if c.tier == TierDevice {
		c.stats.DeviceHits++
	} else {
		c.stats.HostHits++
	}
	return c.tier, true
}

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
