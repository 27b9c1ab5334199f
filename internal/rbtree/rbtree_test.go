package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

// checkInvariants validates the red-black properties and BST ordering.
func checkInvariants[V any](t *testing.T, tr *Tree[int, V]) {
	t.Helper()
	if tr.root != nil && tr.root.color != black {
		t.Fatal("root must be black")
	}
	var blackDepth = -1
	var prev *int
	count := 0
	var walk func(n *node[int, V], depth int)
	walk = func(n *node[int, V], depth int) {
		if n == nil {
			if blackDepth == -1 {
				blackDepth = depth
			} else if depth != blackDepth {
				t.Fatalf("uneven black depth: %d vs %d", depth, blackDepth)
			}
			return
		}
		if n.color == red {
			if colorOf(n.left) == red || colorOf(n.right) == red {
				t.Fatal("red node with red child")
			}
		} else {
			depth++
		}
		if n.left != nil && n.left.parent != n {
			t.Fatal("broken parent pointer (left)")
		}
		if n.right != nil && n.right.parent != n {
			t.Fatal("broken parent pointer (right)")
		}
		walk(n.left, depth)
		if prev != nil && *prev >= n.key {
			t.Fatalf("BST order violated: %d then %d", *prev, n.key)
		}
		k := n.key
		prev = &k
		count++
		walk(n.right, depth)
	}
	walk(tr.root, 0)
	if count != tr.Len() {
		t.Fatalf("size %d != counted %d", tr.Len(), count)
	}
}

func TestPutGetDelete(t *testing.T) {
	tr := New[int, string](intLess)
	tr.Put(5, "five")
	tr.Put(3, "three")
	tr.Put(8, "eight")
	tr.Put(5, "FIVE") // replace
	if v, ok := tr.Get(5); !ok || v != "FIVE" {
		t.Fatalf("get after replace: %q %v", v, ok)
	}
	if tr.Len() != 3 {
		t.Fatalf("len %d", tr.Len())
	}
	if !tr.Delete(3) || tr.Delete(3) {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := tr.Get(3); ok {
		t.Fatal("deleted key still present")
	}
	checkInvariants(t, tr)
}

func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New[int, int](intLess)
	live := map[int]int{}
	for i := 0; i < 5000; i++ {
		k := rng.Intn(800)
		if rng.Intn(3) == 0 {
			delete(live, k)
			tr.Delete(k)
		} else {
			live[k] = i
			tr.Put(k, i)
		}
		if i%500 == 0 {
			checkInvariants(t, tr)
		}
	}
	checkInvariants(t, tr)
	if tr.Len() != len(live) {
		t.Fatalf("tree len %d, want %d", tr.Len(), len(live))
	}
	for k, v := range live {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("key %d: got %d,%v want %d", k, got, ok, v)
		}
	}
}

// TestDeletedNodesAreReused: entries moved back and forth between two trees
// (a Delete from one, a Put into the other) keep their values and both trees
// their invariants, and once each tree has reached its working size a
// delete and an insert allocate nothing: the insert takes the node of an
// earlier delete.
func TestDeletedNodesAreReused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := New[int, int](intLess), New[int, int](intLess)
	for k := 0; k < 400; k++ {
		a.Put(k, -k)
	}
	inA := make(map[int]bool, 400)
	for k := 0; k < 400; k++ {
		inA[k] = true
	}
	move := func(src, dst *Tree[int, int], k int) bool {
		v, ok := src.Get(k)
		if ok {
			src.Delete(k)
			dst.Put(k, v)
		}
		return ok
	}
	for i := 0; i < 3000; i++ {
		k := rng.Intn(400)
		src, dst := a, b
		if !inA[k] {
			src, dst = b, a
		}
		if !move(src, dst, k) || move(src, dst, k) {
			t.Fatalf("move %d: present once, absent after", k)
		}
		inA[k] = !inA[k]
	}
	checkInvariants(t, a)
	checkInvariants(t, b)
	if a.Len()+b.Len() != 400 {
		t.Fatalf("%d + %d entries, want 400", a.Len(), b.Len())
	}
	for k := 0; k < 400; k++ {
		tr := b
		if inA[k] {
			tr = a
		}
		if v, ok := tr.Get(k); !ok || v != -k {
			t.Fatalf("key %d: %d, %v after its moves", k, v, ok)
		}
	}
	src, dst := a, b
	if !inA[1] {
		src, dst = b, a
	}
	if n := testing.AllocsPerRun(100, func() {
		move(src, dst, 1)
		move(dst, src, 1)
		src.Put(1, -1) // a replacement takes no node
	}); n != 0 {
		t.Fatalf("%.1f allocations per pair of moves, want 0", n)
	}
}

func TestMinMax(t *testing.T) {
	tr := New[int, int](intLess)
	if _, _, ok := tr.Min(); ok {
		t.Fatal("empty Min must report false")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("empty Max must report false")
	}
	for _, k := range []int{50, 20, 70, 10, 60} {
		tr.Put(k, k)
	}
	if k, _, _ := tr.Min(); k != 10 {
		t.Fatalf("min %d", k)
	}
	if k, _, _ := tr.Max(); k != 70 {
		t.Fatalf("max %d", k)
	}
}

func TestCeilingFloor(t *testing.T) {
	tr := New[int, int](intLess)
	for _, k := range []int{10, 20, 30, 40} {
		tr.Put(k, k*10)
	}
	cases := []struct {
		q       int
		ceil    int
		ceilOK  bool
		floor   int
		floorOK bool
	}{
		{5, 10, true, 0, false},
		{10, 10, true, 10, true},
		{15, 20, true, 10, true},
		{40, 40, true, 40, true},
		{45, 0, false, 40, true},
	}
	for _, c := range cases {
		k, _, ok := tr.Ceiling(c.q)
		if ok != c.ceilOK || (ok && k != c.ceil) {
			t.Fatalf("Ceiling(%d) = %d,%v", c.q, k, ok)
		}
		k, _, ok = tr.Floor(c.q)
		if ok != c.floorOK || (ok && k != c.floor) {
			t.Fatalf("Floor(%d) = %d,%v", c.q, k, ok)
		}
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := New[int, int](intLess)
	keys := []int{9, 1, 8, 2, 7, 3, 6, 4, 5}
	for _, k := range keys {
		tr.Put(k, k)
	}
	var got []int
	tr.Ascend(func(k, _ int) bool {
		got = append(got, k)
		return true
	})
	if !sort.IntsAreSorted(got) || len(got) != len(keys) {
		t.Fatalf("ascend order wrong: %v", got)
	}
	n := 0
	tr.Ascend(func(k, _ int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop failed: %d", n)
	}
}

func TestCeilingMatchesLinearScan(t *testing.T) {
	f := func(keys []uint8, q uint8) bool {
		tr := New[int, int](intLess)
		set := map[int]bool{}
		for _, k := range keys {
			tr.Put(int(k), int(k))
			set[int(k)] = true
		}
		want, found := 0, false
		for k := int(q); k <= 255; k++ {
			if set[k] {
				want, found = k, true
				break
			}
		}
		k, _, ok := tr.Ceiling(int(q))
		if ok != found {
			return false
		}
		return !ok || k == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllAscendingDescending(t *testing.T) {
	for _, desc := range []bool{false, true} {
		tr := New[int, int](intLess)
		for i := 0; i < 300; i++ {
			tr.Put(i, i)
		}
		for i := 0; i < 300; i++ {
			k := i
			if desc {
				k = 299 - i
			}
			if !tr.Delete(k) {
				t.Fatalf("missing key %d", k)
			}
			if i%37 == 0 {
				checkInvariants(t, tr)
			}
		}
		if tr.Len() != 0 || tr.root != nil {
			t.Fatal("tree not empty after deleting everything")
		}
	}
}
