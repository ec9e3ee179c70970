package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/hashtab"
	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// CacheMode selects how a physical-pool server uses its local DRAM.
type CacheMode int

const (
	// NoCache: every pool access crosses the fabric (the paper's
	// "Physical no-cache" configuration).
	NoCache CacheMode = iota
	// PinnedCache: local DRAM permanently caches the first CacheBytes of
	// pool data it touches ("Physical cache": caching incurs an upfront
	// memcpy but provides faster subsequent reads).
	PinnedCache
	// LRUCache: local DRAM is a demand-filled LRU page cache (the
	// thrash-prone alternative; cyclic scans larger than the cache get
	// zero hits).
	LRUCache
)

func (m CacheMode) String() string {
	switch m {
	case NoCache:
		return "no-cache"
	case PinnedCache:
		return "pinned-cache"
	case LRUCache:
		return "lru-cache"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// cachePageBytes is the physical pool cache granularity.
const cachePageBytes = memnode.PageSize

// PhysicalConfig describes a physical-pool deployment for the functional
// runtime.
type PhysicalConfig struct {
	Servers int
	// LocalBytes is each server's local DRAM available as cache.
	LocalBytes int64
	// PoolBytes is the pool device capacity.
	PoolBytes int64
	Mode      CacheMode
}

// PhysicalPool is the baseline: one pool device behind the fabric, with
// optional per-server local caching. Logical addresses are device offsets
// (a physical pool needs no migration-stable indirection — which is
// exactly its inflexibility).
type PhysicalPool struct {
	cfg    PhysicalConfig
	device *memnode.Node
	region *alloc.Extents

	mu       sync.Mutex
	buffers  map[addr.Logical]*PhysBuffer
	caches   []*pageCache
	deviceOK bool

	metrics *telemetry.Registry
}

// PhysBuffer is an allocation on the pool device.
type PhysBuffer struct {
	pool *PhysicalPool
	base addr.Logical
	size int64

	released bool
}

// Addr returns the buffer's base address.
func (b *PhysBuffer) Addr() addr.Logical { return b.base }

// Size returns the buffer size.
func (b *PhysBuffer) Size() int64 { return b.size }

// NewPhysical builds a physical pool.
func NewPhysical(cfg PhysicalConfig) (*PhysicalPool, error) {
	if cfg.Servers <= 0 {
		return nil, errors.New("core: physical pool needs servers")
	}
	if cfg.PoolBytes <= 0 {
		return nil, errors.New("core: physical pool needs a device")
	}
	if cfg.LocalBytes < 0 {
		return nil, errors.New("core: negative local bytes")
	}
	pool := cfg.PoolBytes - cfg.PoolBytes%cachePageBytes
	device, err := memnode.New("pool-device", pool, pool)
	if err != nil {
		return nil, err
	}
	region, err := alloc.NewExtents(pool/cachePageBytes*cachePageBytes, cachePageBytes)
	if err != nil {
		return nil, err
	}
	p := &PhysicalPool{
		cfg:      cfg,
		device:   device,
		region:   region,
		buffers:  make(map[addr.Logical]*PhysBuffer),
		deviceOK: true,
		metrics:  telemetry.NewRegistry(),
	}
	for i := 0; i < cfg.Servers; i++ {
		p.caches = append(p.caches, newPageCache(cfg.Mode, cfg.LocalBytes))
	}
	return p, nil
}

// PoolBytes reports device capacity.
func (p *PhysicalPool) PoolBytes() int64 { return p.device.Capacity() }

// FreePoolBytes reports unallocated device capacity.
func (p *PhysicalPool) FreePoolBytes() int64 { return p.region.FreeBytes() }

// Alloc places size bytes on the pool device. Unlike a logical pool, a
// physical pool cannot borrow server DRAM: an allocation beyond the
// device capacity fails — the Figure 5 infeasibility.
func (p *PhysicalPool) Alloc(size int64) (*PhysBuffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: alloc of %d bytes", size)
	}
	off, err := p.region.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("core: physical pool alloc %d: %w", size, err)
	}
	b := &PhysBuffer{pool: p, base: addr.Logical(off), size: size}
	p.mu.Lock()
	p.buffers[b.base] = b
	p.mu.Unlock()
	p.metrics.Counter("pool.allocs").Inc()
	return b, nil
}

// Release frees the buffer.
func (b *PhysBuffer) Release() error {
	p := b.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.released {
		return ErrReleased
	}
	b.released = true
	delete(p.buffers, b.base)
	_, err := p.region.Free(int64(b.base))
	return err
}

// CrashDevice fails the pool device. Unlike an LMP server crash (which
// takes down 1/N of the pool), a physical pool device crash is total:
// every uncached byte of every buffer is gone — the failure-domain
// asymmetry §5 points out.
func (p *PhysicalPool) CrashDevice() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deviceOK = false
	p.metrics.Counter("pool.crashes").Inc()
}

// DeviceOK reports whether the pool device is alive.
func (p *PhysicalPool) DeviceOK() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deviceOK
}

// Read copies len(buf) bytes at la into buf on behalf of server from,
// consulting from's local cache page by page.
func (p *PhysicalPool) Read(from int, la addr.Logical, buf []byte) error {
	if from < 0 || from >= len(p.caches) {
		return fmt.Errorf("core: no server %d", from)
	}
	cache := p.caches[from]
	done := 0
	for done < len(buf) {
		off := int64(la) + int64(done)
		page := off / cachePageBytes
		po := off % cachePageBytes
		n := int(cachePageBytes - po)
		if rem := len(buf) - done; rem < n {
			n = rem
		}
		if cache.read(page, po, buf[done:done+n]) {
			p.metrics.Counter("pool.bytes.read.local").Add(uint64(n))
			p.metrics.Counter("pool.reads.local").Inc()
		} else {
			if !p.DeviceOK() {
				return &failure.MemoryException{Addr: la + addr.Logical(done), Server: -1}
			}
			pageBuf := make([]byte, cachePageBytes)
			if err := p.device.ReadAt(pageBuf, page*cachePageBytes); err != nil {
				return err
			}
			copy(buf[done:done+n], pageBuf[po:po+int64(n)])
			p.metrics.Counter("pool.bytes.read.remote").Add(uint64(n))
			p.metrics.Counter("pool.reads.remote").Inc()
			if filled := cache.fill(page, pageBuf); filled {
				p.metrics.Counter("pool.bytes.cache_fill").Add(cachePageBytes)
			}
		}
		done += n
	}
	return nil
}

// Write copies data into the pool at la on behalf of server from,
// writing through to the device and updating cached pages.
func (p *PhysicalPool) Write(from int, la addr.Logical, data []byte) error {
	if from < 0 || from >= len(p.caches) {
		return fmt.Errorf("core: no server %d", from)
	}
	if !p.DeviceOK() {
		return &failure.MemoryException{Addr: la, Server: -1}
	}
	if err := p.device.WriteAt(data, int64(la)); err != nil {
		return err
	}
	p.metrics.Counter("pool.bytes.write.remote").Add(uint64(len(data)))
	// Update every server's cached copy (hardware-coherent pool device).
	done := 0
	for done < len(data) {
		off := int64(la) + int64(done)
		page := off / cachePageBytes
		po := off % cachePageBytes
		n := int(cachePageBytes - po)
		if rem := len(data) - done; rem < n {
			n = rem
		}
		for _, c := range p.caches {
			c.update(page, po, data[done:done+n])
		}
		done += n
	}
	return nil
}

// pageCache is one server's local cache of pool pages: a keyed recency
// list of page buffers, oldest first. Only LRUCache mode reorders it.
type pageCache struct {
	mode     CacheMode
	capacity int // pages

	mu    sync.Mutex
	pages hashtab.List[[]byte]
}

func newPageCache(mode CacheMode, capBytes int64) *pageCache {
	c := &pageCache{mode: mode, capacity: int(capBytes / cachePageBytes)}
	// Grown on demand: LocalBytes bounds the cache, it does not size it.
	c.pages.Init(0)
	return c
}

// read copies the cached bytes of page at off into dst; reports whether
// the page was cached. The copy happens under the lock because update
// writes into the same buffer.
func (c *pageCache) read(page, off int64, dst []byte) bool {
	if c.mode == NoCache || c.capacity == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.pages.Get(uint64(page))
	if !ok {
		return false
	}
	copy(dst, (*c.pages.At(h))[off:])
	if c.mode == LRUCache {
		c.pages.Touch(h)
	}
	return true
}

// fill inserts a page after a miss, taking ownership of data; reports
// whether it was cached.
func (c *pageCache) fill(page int64, data []byte) bool {
	if c.mode == NoCache || c.capacity == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pages.Get(uint64(page)); ok {
		return false
	}
	if c.pages.Len() >= c.capacity {
		// Pinned: the first capacity pages ever touched stay; later pages
		// are never cached (no thrash, no benefit beyond the pinned set).
		if c.mode == PinnedCache {
			return false
		}
		c.pages.Remove(c.pages.Oldest())
	}
	*c.pages.At(c.pages.Push(uint64(page))) = data
	return true
}

func (c *pageCache) update(page, off int64, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.pages.Get(uint64(page)); ok {
		copy((*c.pages.At(h))[off:], data)
	}
}
