package adlb

import "strconv"

// index is a server's data store. The k-th id a server issues (Unique,
// a StoreChunk's members) is first+k*stride, its datum slot k of pages
// that never move, so a *datum stays valid. Any other id (hand-minted,
// or a hostile frame's 1<<62) takes a spill slot through a map read only
// while non-empty: a frame makes the store allocate per id, not by size.
type index struct {
	first, stride int64
	next          int64           // issue numbers below next are issued
	pages         []*datumPage    // an issued id's datum, by issue number
	extra         map[int64]int64 // any other id's slot in spill
	spill         []*datumPage
}

const pageSize = 128 // datums a page holds, as a slab block held

type datumPage [pageSize]datum

// issue hands out the next n ids and returns the first.
func (x *index) issue(n int64) int64 {
	x.next += n
	return x.first + (x.next-n)*x.stride
}

// issued returns id's issue number, and whether this server issued it.
func (x *index) issued(id int64) (int64, bool) {
	k := (id - x.first) / x.stride
	return k, id >= x.first && (id-x.first)%x.stride == 0 && k < x.next
}

// get returns id's datum, nil while it does not exist.
func (x *index) get(id int64) *datum {
	if len(x.extra) > 0 {
		if k, ok := x.extra[id]; ok {
			return slot(x.spill, k)
		}
	}
	k, ok := x.issued(id)
	if !ok || k/pageSize >= int64(len(x.pages)) || x.pages[k/pageSize] == nil || !slot(x.pages, k).live {
		return nil
	}
	return slot(x.pages, k)
}

// create brings id's datum into being; get(id) must be nil.
func (x *index) create(id int64) *datum {
	k, ok := x.issued(id)
	dir := &x.pages
	if !ok {
		if x.extra == nil {
			x.extra = make(map[int64]int64)
		}
		k, dir = int64(len(x.extra)), &x.spill
		x.extra[id] = k
	}
	grow(dir, k, k+1)
	dm := slot(*dir, k)
	dm.live = true
	return dm
}

// each calls fn on every datum that exists, with its id.
func (x *index) each(fn func(id int64, dm *datum)) {
	for k := int64(0); k < int64(len(x.pages))*pageSize; k++ {
		if pg := x.pages[k/pageSize]; pg != nil && pg[k%pageSize].live {
			fn(x.first+k*x.stride, &pg[k%pageSize])
		}
	}
	for id, k := range x.extra {
		fn(id, slot(x.spill, k))
	}
}

func slot(dir []*datumPage, k int64) *datum { return &dir[k/pageSize][k%pageSize] }

// grow makes the pages of slots [lo, hi) exist, those after lo's carved
// from one allocation, so a StoreChunk of n rows costs one whatever n.
// No page after lo's exists yet, as no slot after lo was handed out.
func grow(dir *[]*datumPage, lo, hi int64) {
	if hi <= lo {
		return
	}
	p, last := lo/pageSize, (hi-1)/pageSize
	if n := int(last) + 1 - len(*dir); n > 0 {
		*dir = append(*dir, make([]*datumPage, n)...)
	}
	if (*dir)[p] != nil {
		p++
	}
	fresh := make([]datumPage, last+1-p)
	for i := range fresh {
		(*dir)[p+int64(i)] = &fresh[i]
	}
}

// container holds a container's members: a column, ids[i] at subscript
// strconv.Itoa(i), until the first other subscript ("01", "-1", "x")
// moves them into members, with their subscripts in order.
type container struct {
	ids       []int64
	members   map[string]int64 // nil while the members are ids
	order     []string
	writeRefs int
}

// lookup returns the member at sub.
func (c *container) lookup(sub string) (int64, bool) {
	if i, ok := c.position(sub); ok && i < len(c.ids) {
		return c.ids[i], true
	}
	m, ok := c.members[sub]
	return m, ok
}

// insert adds member at sub, or reports false, with nothing changed,
// when sub has one.
func (c *container) insert(sub string, member int64) bool {
	if i, ok := c.position(sub); ok && i == len(c.ids) {
		c.ids = append(c.ids, member)
		return true
	}
	if _, dup := c.lookup(sub); dup {
		return false
	}
	if c.members == nil {
		c.members = make(map[string]int64, len(c.ids)+1)
		for i, id := range c.ids {
			c.order = append(c.order, strconv.Itoa(i))
			c.members[c.order[i]] = id
		}
		c.ids = nil
	}
	c.members[sub] = member
	c.order = append(c.order, sub)
	return true
}

// position parses sub as strconv.Itoa writes a position in the column,
// and reports false for any other subscript, or once there is no column.
func (c *container) position(sub string) (int, bool) {
	if c.members != nil || sub == "" || sub[0] < '0' || sub[0] > '9' || sub[0] == '0' && len(sub) > 1 {
		return 0, false
	}
	i, err := strconv.Atoi(sub)
	return i, err == nil
}
