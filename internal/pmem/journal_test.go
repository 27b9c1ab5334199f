package pmem

import "testing"

// TestOnJournalSeesTheCacheImage: the hook runs once per journaled flush,
// in order, and the cache image it observes holds every store made so far —
// the flushed line and the ones no flush has reached — while the media
// image holds the flushed lines only.
func TestOnJournalSeesTheCacheImage(t *testing.T) {
	var d *Device
	calls := 0
	d = New(Config{Size: 1 << 16, Strict: true, Journal: true, OnJournal: func(n int) {
		calls++
		if n != calls || n != d.JournalLen() {
			t.Fatalf("hook call %d reports %d flushes, journal holds %d", calls, n, d.JournalLen())
		}
		if got := d.ReadU64(64 * PAddr(n)); got != uint64(n) {
			t.Fatalf("flush %d: cache image holds %d in the flushed line", n, got)
		}
		if got := d.ReadU64(4096 + 64*PAddr(n)); got != uint64(n) {
			t.Fatalf("flush %d: cache image holds %d in the unflushed line", n, got)
		}
	}})
	c := d.NewCtx()
	for i := 1; i <= 20; i++ {
		d.WriteU64(4096+64*PAddr(i), uint64(i)) // never flushed
		c.PersistU64(CatMeta, 64*PAddr(i), uint64(i))
	}
	if calls != 20 {
		t.Fatalf("%d hook calls for 20 flushes", calls)
	}
	d.Crash()
	if d.ReadU64(64*5) != 5 || d.ReadU64(4096+64*5) != 0 {
		t.Fatal("media image: the flushed line must survive the crash, the unflushed one must not")
	}
}
