package main

import (
	"encoding/binary"
	"fmt"
)

// Every byte the benchmark stores is part of a self-describing 64-byte
// block: the buffer offset it lives at, who wrote it, the writer's
// version, and a checksum over those three that also seeds the filler
// words, so a block that was torn, misplaced or partly overwritten fails
// verification wherever it is read. Eight word compares per block keep
// the check cheap enough to run on every 1 MiB wire read.
const (
	blockSize = 64
	// prefillWriter marks blocks written during set-up (version 0).
	prefillWriter = 0xffff
)

func blockSum(off uint64, writer, version uint32) uint64 {
	x := off ^ uint64(writer)<<32 ^ uint64(version) ^ 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// encodeBlocks fills buf, whose length is a multiple of blockSize, with
// well-formed blocks for buffer offsets off, off+64, ...
func encodeBlocks(buf []byte, off int64, writer, version uint32) {
	for i := 0; i+blockSize <= len(buf); i += blockSize {
		b := buf[i : i+blockSize : i+blockSize]
		o := uint64(off) + uint64(i)
		sum := blockSum(o, writer, version)
		binary.LittleEndian.PutUint64(b[0:], o)
		binary.LittleEndian.PutUint32(b[8:], writer)
		binary.LittleEndian.PutUint32(b[12:], version)
		binary.LittleEndian.PutUint64(b[16:], sum)
		for w := 0; w < 5; w++ {
			binary.LittleEndian.PutUint64(b[24+8*w:], sum+uint64(w+1))
		}
	}
}

// verifyBlock checks one block read from buffer offset off and returns
// its writer and version.
func verifyBlock(b []byte, off int64) (writer, version uint32, err error) {
	b = b[:blockSize:blockSize]
	o := binary.LittleEndian.Uint64(b[0:])
	writer = binary.LittleEndian.Uint32(b[8:])
	version = binary.LittleEndian.Uint32(b[12:])
	if o != uint64(off) {
		return writer, version, fmt.Errorf("block at offset %d claims offset %d", off, o)
	}
	sum := blockSum(o, writer, version)
	if binary.LittleEndian.Uint64(b[16:]) != sum {
		return writer, version, fmt.Errorf("block at offset %d: bad checksum", off)
	}
	for w := 0; w < 5; w++ {
		if binary.LittleEndian.Uint64(b[24+8*w:]) != sum+uint64(w+1) {
			return writer, version, fmt.Errorf("block at offset %d: filler word %d corrupt", off, w)
		}
	}
	return writer, version, nil
}
