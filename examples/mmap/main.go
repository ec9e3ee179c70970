// Mmap demonstrates the application library from §3.2: a process maps a
// range of virtual addresses onto pool memory and uses plain loads and
// stores. Translation composes the process MMU (with TLB) with the pool's
// two-step scheme, and stays valid across migration — the runtime moves
// the bytes, the application never notices.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	lmp "github.com/lmp-project/lmp"
)

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

	// A process on server 1 maps an 8MiB pool buffer.
	as, err := pool.NewAddressSpace(1)
	if err != nil {
		log.Fatal(err)
	}
	buf, err := pool.Alloc(8<<20, 1)
	if err != nil {
		log.Fatal(err)
	}
	m, err := as.Map(buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapped %d MiB of pool memory at VA %#x (%d pages)\n",
		buf.Size()>>20, m.VA, m.Pages)

	// Ordinary loads and stores through the VA.
	record := []byte("row-42: disaggregated but local")
	if err := as.Write(m.VA+4096*42, record); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(record))
	if err := as.Read(m.VA+4096*42, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load through VA: %q\n", got)

	hits, misses := as.TLBStats()
	fmt.Printf("TLB after first touches: %d hits / %d misses\n", hits, misses)
	for i := 0; i < 100; i++ {
		if err := as.Read(m.VA+4096*42, got); err != nil {
			log.Fatal(err)
		}
	}
	hits, misses = as.TLBStats()
	fmt.Printf("TLB after hot loop:      %d hits / %d misses\n", hits, misses)

	// Migrate the backing while the mapping is live.
	slice := uint64(buf.Addr()) >> 21
	if err := pool.MigrateSlice(slice, 3); err != nil {
		log.Fatal(err)
	}
	owner, _ := pool.OwnerOf(buf.Addr())
	if err := as.Read(m.VA+4096*42, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after migration to server %d the same VA still reads: %q\n", owner, got)

	// The same buffer composes with the standard library through the
	// io.ReaderAt adapter — here an io.SectionReader over the record,
	// as seen from server 2.
	sec := io.NewSectionReader(buf.ReaderAt(2), 4096*42, int64(len(record)))
	var sb bytes.Buffer
	if _, err := io.Copy(&sb, sec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("io.SectionReader over pool memory: %q\n", sb.String())

	// Unmap: further access faults.
	if err := as.Unmap(m); err != nil {
		log.Fatal(err)
	}
	if err := as.Read(m.VA, got); err != nil {
		fmt.Printf("after munmap: %v\n", err)
	}
}
