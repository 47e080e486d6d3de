package core

import (
	"errors"

	"magnet/internal/blackboard"
	"magnet/internal/query"
	"magnet/internal/rdf"
)

// Compound refinements implement §3.3's power-user support: "The context
// menu on the query allows users to select a compound navigation option
// like conjunction or disjunction ... Users can drag suggestions into this
// compound refinement option, and use them to build a complex query" — the
// dairy-or-vegetables example. A session holds at most one compound under
// construction; predicates (typically taken from pane suggestions) are
// added to it and the whole group is applied as a single refinement.

// CompoundKind selects the combinator of a compound refinement.
type CompoundKind int

const (
	// CompoundOr combines the collected predicates disjunctively.
	CompoundOr CompoundKind = iota
	// CompoundAnd combines them conjunctively.
	CompoundAnd
)

// ErrNoCompound reports compound operations without an active builder.
var ErrNoCompound = errors.New("core: no compound refinement in progress")

// ErrEmptyCompound reports applying a compound with no collected predicates.
var ErrEmptyCompound = errors.New("core: compound refinement is empty")

// compoundState holds the in-progress builder.
type compoundState struct {
	kind  CompoundKind
	preds []query.Predicate
}

// BeginCompound starts (or restarts) a compound refinement of the given
// kind.
func (s *Session) BeginCompound(kind CompoundKind) {
	s.compound = &compoundState{kind: kind}
}

// AddToCompound drags a predicate into the compound under construction.
// Duplicate predicates (by key) collapse.
func (s *Session) AddToCompound(p query.Predicate) error {
	if s.compound == nil {
		return ErrNoCompound
	}
	for _, q := range s.compound.preds {
		if q.Key() == p.Key() {
			return nil
		}
	}
	s.compound.preds = append(s.compound.preds, p)
	return nil
}

// Compound returns the predicates collected so far and whether a compound
// is active.
func (s *Session) Compound() (CompoundKind, []query.Predicate, bool) {
	if s.compound == nil {
		return 0, nil, false
	}
	out := make([]query.Predicate, len(s.compound.preds))
	copy(out, s.compound.preds)
	return s.compound.kind, out, true
}

// CancelCompound abandons the builder.
func (s *Session) CancelCompound() { s.compound = nil }

// ApplyCompound executes the compound as one refinement of the current
// collection and clears the builder.
func (s *Session) ApplyCompound(mode blackboard.RefineMode) error {
	if s.compound == nil {
		return ErrNoCompound
	}
	if len(s.compound.preds) == 0 {
		return ErrEmptyCompound
	}
	var p query.Predicate
	preds := s.compound.preds
	if len(preds) == 1 {
		p = preds[0]
	} else if s.compound.kind == CompoundOr {
		p = query.Or{Ps: preds}
	} else {
		p = query.And{Ps: preds}
	}
	s.compound = nil
	s.Refine(p, mode)
	return nil
}

// ApplyValueSet implements the last move of §3.3: the user navigates to a
// collection of *values* (e.g. ingredients), refines it ("ingredients
// found only in North America"), and applies it back to a target query —
// "to either get recipes having an (using or) ingredient found in North
// America, or to get recipes having all (using and) their ingredients found
// in North America". target is the query the value set constrains
// (typically the one the user came from); prop is the connecting property.
func (s *Session) ApplyValueSet(target query.Query, prop rdf.IRI, values []rdf.IRI, all bool, name string) { //magnet-vet:ignore deadcode // §3.3 apply-a-value-set, a library feature no binary serves
	var p query.Predicate
	if all {
		p = query.AllValuesIn{Prop: prop, Values: values, Name: name}
	} else {
		p = query.AnyValueIn{Prop: prop, Values: values, Name: name}
	}
	s.goToQuery(target.With(p))
}
