// Kvstore builds a shared key-value store on a logical memory pool: the
// hash index lives in the small coherent region guarded by a pool ticket
// lock, values live in (non-coherent) shared memory, and any server can
// get or put. It demonstrates the paper's architecture split — a few
// kilobytes of coherent coordination state, bulk data in the plain pool —
// on the v1 API: an options constructor, io.WriterAt adapters for value
// writes, and a vectored multi-get that fetches a batch of values under
// one lock acquisition.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/coherence"
)

const (
	buckets   = 128
	entrySize = 24 // key hash (8) + value addr (8) + value len (8)
)

// kvStore is a fixed-bucket hash table: bucket array in coherent memory,
// values as pool buffers.
type kvStore struct {
	pool     *lmp.Pool
	lock     *coherence.TicketLock
	indexOff int64

	mu      sync.Mutex // protects vals bookkeeping only
	valBufs []*lmp.Buffer
}

func newKVStore(pool *lmp.Pool) (*kvStore, error) {
	lock, err := pool.NewLock()
	if err != nil {
		return nil, err
	}
	indexOff, err := pool.AllocCoherent(buckets * entrySize)
	if err != nil {
		return nil, err
	}
	return &kvStore{pool: pool, lock: lock, indexOff: indexOff}, nil
}

func hashKey(key string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// put stores value under key on behalf of server.
func (kv *kvStore) put(server lmp.ServerID, key, value string) error {
	buf, err := kv.pool.Alloc(int64(len(value))+1, server)
	if err != nil {
		return err
	}
	kv.mu.Lock()
	kv.valBufs = append(kv.valBufs, buf)
	kv.mu.Unlock()
	// The io.WriterAt adapter scopes the write to the buffer: a length
	// bug fails with a bounds error instead of scribbling on a neighbor.
	if _, err := buf.WriterAt(server).WriteAt([]byte(value), 0); err != nil {
		return err
	}

	h := hashKey(key)
	node := coherence.NodeID(server)
	if err := kv.lock.Lock(node); err != nil {
		return err
	}
	defer func() {
		if err := kv.lock.Unlock(node); err != nil {
			log.Printf("kvstore: unlock: %v", err)
		}
	}()
	// Linear-probe the bucket array through coherent memory.
	entry := make([]byte, entrySize)
	for probe := 0; probe < buckets; probe++ {
		slot := (h + uint64(probe)) % buckets
		off := kv.indexOff + int64(slot)*entrySize
		if err := kv.pool.CoherentRead(server, off, entry); err != nil {
			return err
		}
		stored := binary.LittleEndian.Uint64(entry[0:8])
		if stored != 0 && stored != h {
			continue
		}
		binary.LittleEndian.PutUint64(entry[0:8], h)
		binary.LittleEndian.PutUint64(entry[8:16], uint64(buf.Addr()))
		binary.LittleEndian.PutUint64(entry[16:24], uint64(len(value)))
		return kv.pool.CoherentWrite(server, off, entry)
	}
	return fmt.Errorf("kvstore: table full")
}

// locate resolves key to its value's address and length via the coherent
// index, without touching the value itself.
func (kv *kvStore) locate(server lmp.ServerID, key string) (lmp.Logical, int, bool, error) {
	h := hashKey(key)
	entry := make([]byte, entrySize)
	for probe := 0; probe < buckets; probe++ {
		slot := (h + uint64(probe)) % buckets
		off := kv.indexOff + int64(slot)*entrySize
		if err := kv.pool.CoherentRead(server, off, entry); err != nil {
			return 0, 0, false, err
		}
		stored := binary.LittleEndian.Uint64(entry[0:8])
		if stored == 0 {
			return 0, 0, false, nil
		}
		if stored != h {
			continue
		}
		vaddr := lmp.Logical(binary.LittleEndian.Uint64(entry[8:16]))
		vlen := binary.LittleEndian.Uint64(entry[16:24])
		return vaddr, int(vlen), true, nil
	}
	return 0, 0, false, nil
}

// get fetches key's value on behalf of server.
func (kv *kvStore) get(server lmp.ServerID, key string) (string, bool, error) {
	vaddr, vlen, ok, err := kv.locate(server, key)
	if err != nil || !ok {
		return "", ok, err
	}
	val := make([]byte, vlen)
	if err := kv.pool.Read(server, vaddr, val); err != nil {
		return "", false, err
	}
	return string(val), true, nil
}

// getMany fetches a batch of keys in one vectored read: the index is
// probed per key, but all values transfer under a single vectored
// operation — one lock acquisition, with per-server coalescing of
// adjacent values. The context bounds the whole batch.
func (kv *kvStore) getMany(ctx context.Context, server lmp.ServerID, keys []string) (map[string]string, error) {
	vecs := make([]lmp.Vec, 0, len(keys))
	found := make([]string, 0, len(keys))
	for _, key := range keys {
		vaddr, vlen, ok, err := kv.locate(server, key)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		vecs = append(vecs, lmp.Vec{Addr: vaddr, Data: make([]byte, vlen)})
		found = append(found, key)
	}
	if err := kv.pool.ReadVCtx(ctx, server, vecs); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(found))
	for i, key := range found {
		out[key] = string(vecs[i].Data)
	}
	return out, nil
}

func main() {
	cfg := lmp.Config{Placement: lmp.LocalityAware}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: fmt.Sprintf("server%d", i), Capacity: 64 << 20, SharedBytes: 64 << 20,
		})
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	kv, err := newKVStore(pool)
	if err != nil {
		log.Fatal(err)
	}

	// Every server writes its own keys concurrently; the coherent-region
	// lock serializes index updates.
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("srv%d/key%d", s, i)
				val := fmt.Sprintf("value-%d-%d-from-server-%d", s, i, s)
				if err := kv.put(lmp.ServerID(s), key, val); err != nil {
					log.Fatalf("put %s: %v", key, err)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Println("32 keys inserted from 4 servers concurrently")

	// Any server can read any key.
	val, ok, err := kv.get(2, "srv0/key3")
	if err != nil || !ok {
		log.Fatalf("get: ok=%v err=%v", ok, err)
	}
	fmt.Printf("server 2 read srv0/key3 = %q\n", val)

	// Batched cross-server reads go through one vectored operation.
	batch, err := kv.getMany(context.Background(), 3,
		[]string{"srv0/key1", "srv1/key2", "srv2/key5", "no/such/key"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server 3 multi-get fetched %d of 4 keys in one ReadV\n", len(batch))
	for _, k := range []string{"srv0/key1", "srv1/key2", "srv2/key5"} {
		fmt.Printf("  %s = %q\n", k, batch[k])
	}

	// Context cancellation fails an access cleanly: the pool checks the
	// context between slice segments, and the error classifies with
	// errors.Is.
	vaddr, _, _, err := kv.locate(0, "srv0/key0")
	if err != nil {
		log.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	err = pool.ReadCtx(cancelled, 0, vaddr, make([]byte, 8))
	fmt.Printf("read with cancelled context: cancelled=%v\n", errors.Is(err, context.Canceled))

	missing, ok, err := kv.get(1, "no/such/key")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup of missing key: ok=%v val=%q\n", ok, missing)

	st := pool.Directory().Stats()
	fmt.Printf("coherence traffic: %d fetches, %d invalidations, %d writebacks\n",
		st.Fetches, st.Invalidations, st.Writebacks)
	ps := pool.Stats()
	fmt.Printf("pool accesses: %d local, %d remote\n",
		ps.Reads.LocalOps+ps.Writes.LocalOps,
		ps.Reads.RemoteOps+ps.Writes.RemoteOps)
}
