// Package rbtree provides a generic ordered map backed by a red-black
// tree. It backs the structures the paper keeps in DRAM for fast lookup:
// the address index ("R-tree") used to find neighbouring extents, the
// size-ordered index used for best-fit extent selection, and the
// bookkeeping log's vchunk index.
package rbtree

const (
	red   = false
	black = true
)

type node[K, V any] struct {
	key                 K
	val                 V
	left, right, parent *node[K, V]
	color               bool
}

// Tree is an ordered map from K to V. Create one with New.
type Tree[K, V any] struct {
	root *node[K, V]
	less func(a, b K) bool
	size int
}

// New creates a tree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	return &Tree[K, V]{less: less}
}

// Len returns the number of entries.
func (t *Tree[K, V]) Len() int { return t.size }

func (t *Tree[K, V]) find(key K) *node[K, V] {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	if n := t.find(key); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value under key.
func (t *Tree[K, V]) Put(key K, val V) { t.put(key, val, nil) }

// put is Put with the node a new entry takes, when the caller has one.
func (t *Tree[K, V]) put(key K, val V, nn *node[K, V]) {
	var parent *node[K, V]
	n := t.root
	for n != nil {
		parent = n
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			n.val = val
			return
		}
	}
	if nn == nil {
		nn = new(node[K, V])
	}
	*nn = node[K, V]{key: key, val: val, parent: parent, color: red}
	t.size++
	if parent == nil {
		t.root = nn
	} else if t.less(key, parent.key) {
		parent.left = nn
	} else {
		parent.right = nn
	}
	t.insertFix(nn)
}

// Delete removes key; it reports whether the key was present.
func (t *Tree[K, V]) Delete(key K) bool {
	n := t.find(key)
	if n == nil {
		return false
	}
	t.deleteNode(n)
	t.size--
	return true
}

// MoveTo moves the entry under key to dst, replacing dst's value under
// the same key if it has one; it reports whether the key was present.
// The entry keeps its node, so a move allocates nothing.
func (t *Tree[K, V]) MoveTo(dst *Tree[K, V], key K) bool {
	n := t.find(key)
	if n == nil {
		return false
	}
	t.deleteNode(n)
	t.size--
	dst.put(n.key, n.val, n)
	return true
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var k K
		var v V
		return k, v, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil {
		var k K
		var v V
		return k, v, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Ceiling returns the smallest entry with key >= key (best-fit search).
func (t *Tree[K, V]) Ceiling(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(n.key, key) {
			n = n.right
		} else {
			best = n
			n = n.left
		}
	}
	if best == nil {
		var k K
		var v V
		return k, v, false
	}
	return best.key, best.val, true
}

// Floor returns the largest entry with key <= key (predecessor search,
// used for extent coalescing).
func (t *Tree[K, V]) Floor(key K) (K, V, bool) {
	var best *node[K, V]
	n := t.root
	for n != nil {
		if t.less(key, n.key) {
			n = n.left
		} else {
			best = n
			n = n.right
		}
	}
	if best == nil {
		var k K
		var v V
		return k, v, false
	}
	return best.key, best.val, true
}

// Ascend calls fn on every entry in key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	var walk func(n *node[K, V]) bool
	walk = func(n *node[K, V]) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n.key, n.val) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}

func (t *Tree[K, V]) rotateLeft(x *node[K, V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[K, V]) rotateRight(x *node[K, V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[K, V]) insertFix(z *node[K, V]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func colorOf[K, V any](n *node[K, V]) bool {
	if n == nil {
		return black
	}
	return n.color
}

func (t *Tree[K, V]) transplant(u, v *node[K, V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree[K, V]) deleteNode(z *node[K, V]) {
	y := z
	yColor := y.color
	var x, xParent *node[K, V]
	switch {
	case z.left == nil:
		x, xParent = z.right, z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x, xParent = z.left, z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.deleteFix(x, xParent)
	}
}

func (t *Tree[K, V]) deleteFix(x, parent *node[K, V]) {
	for x != t.root && colorOf(x) == black {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if colorOf(w) == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if colorOf(w.left) == black && colorOf(w.right) == black {
				w.color = red
				x, parent = parent, parent.parent
			} else {
				if colorOf(w.right) == black {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if colorOf(w) == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if colorOf(w.right) == black && colorOf(w.left) == black {
				w.color = red
				x, parent = parent, parent.parent
			} else {
				if colorOf(w.left) == black {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = black
	}
}
