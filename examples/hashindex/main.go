// hashindex: a persistent hash index (internal/phash) as a session store.
// The index holds 8-byte values inline, so each session is a 64-byte
// record the example allocates itself and publishes by address; expiring
// a session unpublishes it, then frees it. Loads sessions, crashes,
// recovers in O(1) (the index needs no rebuild — buckets are persistent),
// and verifies every committed session.
package main

import (
	"fmt"
	"log"

	"nvalloc"
	"nvalloc/internal/phash"
	"nvalloc/internal/pmem"
)

// Session record: [0,8) session ID, [8,16) user ID, rest padding.
const sessionBytes = 64

func main() {
	dev := nvalloc.NewDevice(nvalloc.DeviceConfig{Size: 512 << 20, Strict: true})
	heap, err := nvalloc.Create(dev, nvalloc.Options{Variant: nvalloc.LOG})
	if err != nil {
		log.Fatal(err)
	}
	th := heap.NewThread()

	idx, err := phash.Create(heap.Heap, th, 0, 4096, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Store 100k sessions: key = session ID, value = address of its record.
	// The record is durable before the index publishes it.
	const sessions = 100000
	c := th.Ctx()
	for sid := uint64(0); sid < sessions; sid++ {
		rec, err := th.Malloc(sessionBytes)
		if err != nil {
			log.Fatal(err)
		}
		dev.WriteU64(rec, sid)
		dev.WriteU64(rec+8, sid%977)
		c.Flush(pmem.CatOther, rec, sessionBytes)
		c.Fence()
		if err := idx.Put(th, sid, uint64(rec)); err != nil {
			log.Fatal(err)
		}
	}
	// Expire a third of them: look the record up, unpublish it, free it. A
	// crash between the last two leaks the record, never corrupts the index.
	expired := 0
	for sid := uint64(0); sid < sessions; sid += 3 {
		rec, ok := idx.Get(th, sid)
		if !ok {
			continue
		}
		if _, err := idx.Delete(th, sid); err != nil {
			log.Fatal(err)
		}
		if err := th.Free(pmem.PAddr(rec)); err != nil {
			log.Fatal(err)
		}
		expired++
	}
	fmt.Printf("stored %d sessions, expired %d, live %d\n", sessions, expired, idx.Len())
	th.Ctx().Merge()

	dev.Crash()
	fmt.Println("-- crash --")

	heap2, ns, err := nvalloc.Open(dev, nvalloc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	th2 := heap2.NewThread()
	idx2, err := phash.Open(heap2.Heap, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered in %.2f ms virtual time; index attached with no rebuild\n", float64(ns)/1e6)

	bad := 0
	for sid := uint64(0); sid < sessions; sid++ {
		rec, ok := idx2.Get(th2, sid)
		if sid%3 == 0 {
			if ok {
				bad++
			}
		} else if !ok || dev.ReadU64(pmem.PAddr(rec)) != sid || dev.ReadU64(pmem.PAddr(rec)+8) != sid%977 {
			bad++
		}
	}
	if bad != 0 {
		log.Fatalf("%d sessions corrupted", bad)
	}
	fmt.Printf("all %d live sessions verified after crash\n", idx2.Len())
	th2.Close()
	if err := heap2.Close(); err != nil {
		log.Fatal(err)
	}
}
