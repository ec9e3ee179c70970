package core

// lender is the one way the pool reaches a server's memory: the shared
// region's bytes, its extent allocator and its private/shared boundary
// (§3: every server lends part of its DRAM, and the pool is the same
// whatever the lender is). In process the lender is a *memnode.Node,
// built by newPool and named nowhere else in the package.
//
// It carries only what the lender alone knows. A server's name and
// capacity are the pool's own configuration (Config.Servers), and its
// private bytes are capacity minus SharedBytes, so none of the three is
// asked of the lender. Liveness is the pool's verdict too (Pool.dead), and
// every call returns only once done: there is no asynchronous issue/wait.
//
// The slice entry stays with the pool: a lender is handed the extent
// offset, never a logical address, and a move's commit window still
// publishes the one record. A cache hit never reaches a lender.
//
// Which pool locks each call runs under is tabled in DESIGN.md, "The
// lender seam"; p.mu may be held across any of them.
type lender interface {
	// ReadAt and WriteAt copy len(p) bytes at offset off of the server's
	// memory.
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	// Alloc grants an extent of the shared region and returns its offset;
	// the extent reads as zeros. Free takes it back, scrubbed, and reports
	// its length. Both fail with an error wrapping alloc.ErrNoSpace or
	// alloc.ErrNotAllocated respectively and change nothing.
	Alloc(size int64) (int64, error)
	Free(off int64) (int64, error)
	// Resize moves the private/shared boundary; a shrink over a granted
	// extent fails, wrapping alloc.ErrNoSpace.
	Resize(sharedBytes int64) error
	// SharedBytes, FreeBytes and InUse report the shared region's size,
	// its ungranted bytes and its granted bytes.
	SharedBytes() int64
	FreeBytes() int64
	InUse() int64
}
