package coherence

import "sync"

// TicketLock is a fair spin lock living in the coherent region: the ticket
// and owner counters occupy coherent memory, and every acquisition and
// spin round goes through the directory so lock contention shows up as
// coherence traffic — exactly the coordination cost §5 discusses. In this
// runtime, waiting is implemented with a condition variable instead of
// burning cycles, but each wakeup re-reads the owner word through the
// directory like a spinning cache would.
type TicketLock struct {
	dir        *Directory
	ticketAddr int64
	ownerAddr  int64

	mu     sync.Mutex
	cond   *sync.Cond
	next   uint64
	owner  uint64
	inited bool
}

// NewTicketLock places a lock at baseAddr in the coherent region governed
// by dir. The lock occupies two directory blocks (ticket and owner words)
// so handoff traffic is realistic.
func NewTicketLock(dir *Directory, baseAddr int64) *TicketLock {
	l := &TicketLock{
		dir:        dir,
		ticketAddr: baseAddr,
		ownerAddr:  baseAddr + dir.Granularity(),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Lock acquires the lock on behalf of node, generating the directory
// traffic of a ticket acquisition (one write upgrade on the ticket word,
// one read of the owner word per wait round).
func (l *TicketLock) Lock(node NodeID) error {
	if _, err := l.dir.AcquireWrite(node, l.ticketAddr); err != nil {
		return err
	}
	l.mu.Lock()
	my := l.next
	l.next++
	for l.owner != my {
		// A spin round: the waiter re-fetches the owner word.
		l.mu.Unlock()
		if _, err := l.dir.AcquireRead(node, l.ownerAddr); err != nil {
			return err
		}
		l.mu.Lock()
		if l.owner == my {
			break
		}
		l.cond.Wait()
	}
	l.mu.Unlock()
	// The winner reads the owner word once to observe its turn.
	_, err := l.dir.AcquireRead(node, l.ownerAddr)
	return err
}

// Unlock releases the lock on behalf of node, upgrading the owner word
// (which invalidates every spinning reader's copy).
func (l *TicketLock) Unlock(node NodeID) error {
	if _, err := l.dir.AcquireWrite(node, l.ownerAddr); err != nil {
		return err
	}
	l.mu.Lock()
	l.owner++
	l.cond.Broadcast()
	l.mu.Unlock()
	return nil
}
