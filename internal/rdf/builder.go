package rdf

import (
	"cmp"
	"slices"
	"sort"

	"magnet/internal/ids"
)

// Builder is the write side of a Graph: it collects triples in maps, then
// Columns compiles them into the columnar image a frozen Graph serves
// from. It offers no reads beyond what compiling needs; a caller that must
// read while building (an annotator sampling values) freezes a snapshot.
// A Builder is not safe for concurrent use.
type Builder struct {
	// spo: subject → predicate → object key → object term. A subject
	// whose last triple is removed leaves the map.
	spo  map[IRI]map[IRI]map[string]Term
	size int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{spo: make(map[IRI]map[IRI]map[string]Term)}
}

// Len returns the number of triples added and not removed.
func (b *Builder) Len() int { return b.size }

// Add inserts the triple (s, p, o). It reports whether the triple was new.
func (b *Builder) Add(s, p IRI, o Term) bool {
	ok := o.Key()
	po := b.spo[s]
	if po == nil {
		po = make(map[IRI]map[string]Term)
		b.spo[s] = po
	}
	objs := po[p]
	if objs == nil {
		objs = make(map[string]Term)
		po[p] = objs
	}
	if _, dup := objs[ok]; dup {
		return false
	}
	objs[ok] = o
	b.size++
	return true
}

// Remove deletes the triple (s, p, o). It reports whether it was present.
func (b *Builder) Remove(s, p IRI, o Term) bool {
	ok := o.Key()
	objs := b.spo[s][p]
	if _, present := objs[ok]; !present {
		return false
	}
	delete(objs, ok)
	if len(objs) == 0 {
		delete(b.spo[s], p)
		if len(b.spo[s]) == 0 {
			delete(b.spo, s)
		}
	}
	b.size--
	return true
}

// Freeze compiles the builder into a frozen Graph. The builder stays
// usable; later changes to it do not reach the graph.
func (b *Builder) Freeze() *Graph {
	g, err := FromColumns(b.Columns())
	if err != nil {
		panic("rdf: compiled graph columns rejected: " + err.Error())
	}
	return g
}

// posEntry is one (predicate, value, subject) posting entry while the POS
// columns are compiled.
type posEntry struct{ p, t, s uint32 }

// Columns compiles the triples into the graph's columnar image — what
// Freeze serves from and magnet-build writes. The image is a function of
// the triple set alone: subjects are numbered in lexical order, so the
// same triples yield identical bytes whatever order they were added in.
func (b *Builder) Columns() GraphColumns {
	var c GraphColumns
	c.Triples = uint64(b.size)

	// Subject IDs: the live subjects in lexical order, so the table's
	// sorted permutation is the identity.
	subjects := make([]IRI, 0, len(b.spo))
	for s := range b.spo {
		subjects = append(subjects, s)
	}
	sortIRIs(subjects)
	c.Subj = ids.Columns{Off: make([]uint32, 1, len(subjects)+1), Sorted: make([]uint32, len(subjects))}
	for i, s := range subjects {
		c.Subj.Blob = append(c.Subj.Blob, s...)
		c.Subj.Off = append(c.Subj.Off, uint32(len(c.Subj.Blob)))
		c.Subj.Sorted[i] = uint32(i)
	}

	// Predicate and object-term tables, sorted.
	predSet := make(map[IRI]bool)
	keySet := make(map[string]bool)
	for _, po := range b.spo {
		for p, objs := range po {
			predSet[p] = true
			for k := range objs {
				keySet[k] = true
			}
		}
	}
	preds := make([]IRI, 0, len(predSet))
	for p := range predSet {
		preds = append(preds, p)
	}
	sortIRIs(preds)
	predID := make(map[IRI]uint32, len(preds))
	c.PredOff = make([]uint32, 1, len(preds)+1)
	for i, p := range preds {
		predID[p] = uint32(i)
		c.PredBlob = append(c.PredBlob, p...)
		c.PredOff = append(c.PredOff, uint32(len(c.PredBlob)))
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	termID := make(map[string]uint32, len(keys))
	c.TermOff = make([]uint32, 1, len(keys)+1)
	for i, k := range keys {
		termID[k] = uint32(i)
		c.TermBlob = append(c.TermBlob, k...)
		c.TermOff = append(c.TermOff, uint32(len(c.TermBlob)))
	}

	// SPO rows, one per subject in ID order; the POS entries are collected
	// on the way.
	entries := make([]posEntry, 0, b.size)
	c.SpoPredStart = make([]uint32, 1, len(subjects)+1)
	c.SpoObjStart = []uint32{0}
	for sid, s := range subjects {
		po := b.spo[s]
		sp := make([]IRI, 0, len(po))
		for p := range po {
			sp = append(sp, p)
		}
		sortIRIs(sp)
		for _, p := range sp {
			pid := predID[p]
			row := len(c.SpoObj)
			for k := range po[p] {
				c.SpoObj = append(c.SpoObj, termID[k])
			}
			slices.Sort(c.SpoObj[row:])
			for _, t := range c.SpoObj[row:] {
				entries = append(entries, posEntry{pid, t, uint32(sid)})
			}
			c.SpoPred = append(c.SpoPred, pid)
			c.SpoObjStart = append(c.SpoObjStart, uint32(len(c.SpoObj)))
		}
		c.SpoPredStart = append(c.SpoPredStart, uint32(len(c.SpoPred)))
	}

	// POS columns: per predicate, values in key order, each with its
	// sorted subject posting.
	slices.SortFunc(entries, func(a, b posEntry) int {
		if a.p != b.p {
			return cmp.Compare(a.p, b.p)
		}
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.s, b.s)
	})
	c.PosValStart = make([]uint32, 1, len(preds)+1)
	c.PosPostStart = []uint32{0}
	c.PosPost = make([]uint32, 0, len(entries))
	i := 0
	for pid := uint32(0); int(pid) < len(preds); pid++ {
		for i < len(entries) && entries[i].p == pid {
			t := entries[i].t
			c.PosValTerm = append(c.PosValTerm, t)
			for ; i < len(entries) && entries[i].p == pid && entries[i].t == t; i++ {
				c.PosPost = append(c.PosPost, entries[i].s)
			}
			c.PosPostStart = append(c.PosPostStart, uint32(len(c.PosPost)))
		}
		c.PosValStart = append(c.PosValStart, uint32(len(c.PosValTerm)))
	}
	return c
}
