package layout

import "implicitlayout/internal/bits"

// maxVEBFrames bounds the decomposition stack depth: the level count at
// least halves per frame, so 64-level trees need at most 7 nested frames.
const maxVEBFrames = 8

// vebFrame is one subtree on the decomposition path to the current node.
// Local coordinates are derived from the cursor's global (depth, rank):
// the node's depth within the frame is gdepth - entry, and its rank within
// the frame is the low gdepth-entry bits of grank — so descending never
// rewrites the stack.
type vebFrame struct {
	off    int
	n      int
	levels int
	entry  int // global depth of this subtree's root level
}

// VEBCursor moves through a vEB layout — down a root-to-leaf descent,
// or up and down an in-order walk — with amortized O(1) work per level:
// it keeps the stack of decomposition subtrees containing the current
// node and updates it incrementally (each subtree on the path is entered
// exactly once). This is the optimization that keeps vEB query cost
// within a small factor of B-tree queries, as in the paper's
// measurements, instead of paying a full O(log log N) position
// derivation per level (VEBNav.Pos). The zero value is not usable;
// obtain cursors from VEBNav.Cursor.
type VEBCursor struct {
	n      int
	gdepth int
	grank  int
	top    int
	stack  [maxVEBFrames]vebFrame
}

// Cursor returns a cursor positioned at the root.
func (nav VEBNav) Cursor() VEBCursor {
	c := VEBCursor{n: nav.n}
	c.Reset()
	return c
}

// Reset repositions the cursor at the root.
func (c *VEBCursor) Reset() {
	c.gdepth, c.grank = 0, 0
	c.top = 0
	c.stack[0] = vebFrame{off: 0, n: c.n, levels: bits.Levels(max(c.n, 1)), entry: 0}
	c.refine()
}

// Pos returns the array position of the current node.
func (c *VEBCursor) Pos() int { return c.stack[c.top].off }

// Descend moves to the left (dir 0) or right (dir 1) child and reports
// whether that child exists in the complete tree.
func (c *VEBCursor) Descend(dir int) bool {
	gd, gr := c.gdepth+1, 2*c.grank+dir
	if (1<<uint(gd)-1)+gr >= c.n {
		return false
	}
	c.gdepth, c.grank = gd, gr
	// Pop the subtrees the child falls out of.
	for gd-c.stack[c.top].entry >= c.stack[c.top].levels {
		c.top--
	}
	c.refine()
	return true
}

// Ascend moves to the current node's ancestor at the given depth, which
// must lie in [0, current depth]. The frames rooted below the ancestor
// are popped; the innermost remaining one contains it, and refine
// re-enters the subtrees down to it.
func (c *VEBCursor) Ascend(depth int) {
	c.grank >>= uint(c.gdepth - depth)
	c.gdepth = depth
	for c.stack[c.top].entry > depth {
		c.top--
	}
	c.refine()
}

// refine pushes decomposition frames until the innermost subtree has a
// single level, whose offset is the node's position. Each frame is pushed
// once on the way down a root-to-leaf path, so the cost is amortized
// constant per level.
func (c *VEBCursor) refine() {
	for {
		f := &c.stack[c.top]
		if f.levels <= 1 {
			return
		}
		depth := c.gdepth - f.entry
		lt, _ := VEBSplit(f.levels)
		if depth < lt {
			c.top++
			c.stack[c.top] = vebFrame{
				off:    f.off,
				n:      1<<uint(lt) - 1,
				levels: lt,
				entry:  f.entry,
			}
			continue
		}
		rank := c.grank & (1<<uint(depth) - 1) // rank within f's subtree
		bi := rank >> uint(depth-lt)
		lb := f.levels - lt
		if f.n == 1<<uint(f.levels)-1 {
			// Perfect subtree: all bottoms have 2^lb - 1 nodes.
			sj := 1<<uint(lb) - 1
			c.top++
			c.stack[c.top] = vebFrame{
				off:    f.off + (1<<uint(lt) - 1) + bi*sj,
				n:      sj,
				levels: lb,
				entry:  f.entry + lt,
			}
			continue
		}
		d := vebDecompose(f.n, f.levels)
		sj := d.size(bi)
		c.top++
		c.stack[c.top] = vebFrame{
			off:    f.off + d.topN + d.sizeSum(bi),
			n:      sj,
			levels: bits.Levels(sj),
			entry:  f.entry + lt,
		}
	}
}
