package crashmc

import "testing"

// TestResetsMatchFullCopies holds every reset a family run makes of its
// scratch devices — to a power cut's clean image, a recovery cut's image,
// a cache-image cut's copy of the recording device, a flip cut's image and
// its flips — to the image a full copy would have left, byte for byte, in
// the cache and, on a strict device, the media image (checkResets). A line
// a reset missed is a violation at its boundary; a torn image, a crash or
// a recovery that changed a line the device did not note shows at the
// reset after it. It runs a family with windows on NVAlloc (sweep) and one
// on a baseline allocator (smoke), every kind of cut each has, at the
// thinning of a -short run: each check reads the whole device.
func TestResetsMatchFullCopies(t *testing.T) {
	checkResets = true
	defer func() { checkResets = false }()
	for _, c := range []struct{ name, target string }{{"sweep", "NVAlloc-LOG"}, {"smoke", "PMDK"}} {
		fc := familyCases[c.name]
		opt := fc.short
		opt.TornSeed = fc.tornSeed
		rep, err := familyOf(t, c.name, c.target).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range rep.Reports() {
			t.Logf("%s", r)
			checkReport(t, r, fc.seed, fc.tornSeed)
			n += r.Explored
		}
		if rep.Recovery == nil && c.name == "sweep" || rep.Cache.Explored == 0 || rep.Flip.Explored == 0 {
			t.Errorf("%s on %s took no cut of some kind: %+v", c.name, c.target, rep.Counters())
		}
		t.Logf("%s on %s: %d cuts, each reset held to a full copy", c.name, c.target, n)
	}
}
