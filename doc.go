// Package magnet is a from-scratch Go reproduction of "Magnet: Supporting
// Navigation in Semistructured Data Environments" (Sinha & Karger, SIGMOD
// 2005): a domain-independent navigation system over semistructured (RDF)
// data, built on a vector space model extended with attribute/value
// coordinates, attribute compositions and unit-circle numeric encoding, a
// predicate query engine, and a blackboard of analysts feeding navigation
// advisors.
//
// The root package only carries documentation and the benchmark harness
// (bench_test.go regenerates every figure and result of the paper's
// evaluation); the implementation lives under internal/:
//
//	internal/rdf        RDF graph substrate (terms, store, N-Triples)
//	internal/text       tokenizer, stop words, Porter stemmer
//	internal/index      tf·idf vector store + inverted text index (the
//	                    Lucene substitute)
//	internal/schema     schema annotations (labels, value types,
//	                    compositions, hidden, facets, tree shape)
//	internal/vsm        the semistructured vector space model (§5)
//	internal/query      the query engine (§4.2)
//	internal/blackboard analysts/advisors blackboard (§4.3)
//	internal/analysts   the paper's analyst set (§4.1) and the §6.3
//	                    Flamenco-like baseline set
//	internal/advisors   navigation pane assembly
//	internal/facets     faceted summaries and range histograms
//	internal/history    visit log, transitions, refinement trail
//	internal/core       the Magnet facade and Session
//	internal/render     text rendering of the interface
//	internal/web        the interface as a web application
//	internal/qlang      structured query surface language
//	internal/annotate   §7 heuristic annotation inference
//	internal/datasets/* recipes, 50 states, factbook, inbox, courses,
//	                    artstor, INEX, csvrdf
//	internal/xmlconv    XML→RDF conversion (§6.2)
//	internal/inexeval   the §6.2 flexibility evaluation
//	internal/simuser    the §6.3 simulated user study
//
// Binaries: cmd/magnet (interactive browser), cmd/magnet-server (web UI),
// cmd/magnet-eval (§6.1 and Figures 1–8), cmd/magnet-inex (§6.2),
// cmd/magnet-study (§6.3), cmd/magnet-annotate (§7 annotation advisor).
package magnet
