package nvalloc

import (
	"reflect"
	"testing"

	"nvalloc/internal/core"
	"nvalloc/internal/pmem"
)

func TestPublicQuickstartFlow(t *testing.T) {
	dev := NewDevice(DeviceConfig{Size: 64 << 20, Strict: true})
	heap, err := Create(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	th := heap.NewThread()
	p, err := th.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(p, 42)
	if err := th.Free(p); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if err := heap.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCrashRecoveryFlow(t *testing.T) {
	dev := NewDevice(DeviceConfig{Size: 64 << 20, Strict: true})
	heap, err := Create(dev, Options{Variant: LOG})
	if err != nil {
		t.Fatal(err)
	}
	th := heap.NewThread()
	p, err := MallocTo(th, heap.RootSlot(0), 256)
	if err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(p, 777)
	th.Ctx().Flush(pmem.CatOther, p, 8)
	th.Ctx().Merge()
	dev.Crash()

	heap2, ns, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 {
		t.Fatal("recovery time not reported")
	}
	got := PAddr(dev.ReadU64(heap2.RootSlot(0)))
	if got != p || dev.ReadU64(got) != 777 {
		t.Fatal("published object lost across crash")
	}
}

func TestEADRDisablesInterleavingAutomatically(t *testing.T) {
	// layout creates a heap of the variant on dev and reports what it
	// spreads over how many stripes.
	layout := func(dev *Device, o Options) core.Layout {
		t.Helper()
		h, err := Create(dev, o)
		if err != nil {
			t.Fatal(err)
		}
		return h.Layout()
	}
	eadr := func() *Device { return NewDevice(DeviceConfig{Size: 64 << 20, Mode: ModeEADR}) }
	adr := func() *Device { return NewDevice(DeviceConfig{Size: 64 << 20}) }
	off := core.Layout{Bitmap: 1, Tcache: 1, WAL: 1}
	for _, v := range []Variant{LOG, GC, IC} {
		if got := layout(eadr(), Options{Variant: v}); got != off {
			t.Fatalf("%v: interleaving must auto-disable on eADR, got %+v", v, got)
		}
	}
	// On ADR a variant interleaves what it flushes per op: every variant
	// its log entries, IC its bitmaps and tcache as well.
	for v, want := range map[Variant]core.Layout{
		LOG: {Bitmap: 1, Tcache: 1, WAL: 6},
		GC:  {Bitmap: 1, Tcache: 1, WAL: 6},
		IC:  {Bitmap: 6, Tcache: 6, WAL: 6},
	} {
		if got := layout(adr(), Options{Variant: v}); got != want {
			t.Fatalf("%v: layout on ADR %+v, want %+v", v, got, want)
		}
	}
}

func TestOptionKnobsReachCore(t *testing.T) {
	dev := NewDevice(DeviceConfig{Size: 64 << 20})
	o := Options{Variant: GC, Arenas: 3, DisableMorphing: true}.toCore(dev)
	if o.Variant != GC || o.Arenas != 3 || o.Morphing {
		t.Fatalf("options not forwarded: %+v", o)
	}
	// core's configuration stays small: a new knob has to edit this count.
	if n := reflect.TypeOf(core.Options{}).NumField(); n != 9 {
		t.Fatalf("core.Options has %d fields, want 9", n)
	}
}

func TestICVariantPublicSurface(t *testing.T) {
	dev := NewDevice(DeviceConfig{Size: 64 << 20, Strict: true})
	heap, err := Create(dev, Options{Variant: IC})
	if err != nil {
		t.Fatal(err)
	}
	th := heap.NewThread()
	p, err := th.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	th.Ctx().Merge()
	dev.Crash()
	heap2, _, err := Open(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	heap2.Objects(func(o Object) bool {
		if o.Addr == p {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("IC crash survivor not enumerable via Objects")
	}
}
