// Package repro is a constructive reproduction of Simone Santini's position
// paper "Summa Contra Ontologiam" (EDBT 2006 Workshops, LNCS 4254). The paper
// publishes no system and no evaluation; this repository builds, as working
// Go substrates, every formal device the paper names, endorses or attacks —
// order-sorted algebras and Bench-Capon/Malcolm ontology signatures, Guarino's
// intensional-relation machinery, formal grammars, a description logic with
// structural and tableau subsumption, definition graphs and their
// isomorphisms, lexical fields, a fixed-point hermeneutic interpreter, and an
// indexed triple store with ontology-mediated query answering — and turns each
// of the paper's three arguments (definitional, semantic, pragmatic) into a
// measurable synthetic experiment.
//
// The public entry points are:
//
//   - internal/core: the ontology audit that runs all three critiques over an
//     ontonomy and its surrounding data;
//   - internal/query: the BGP query layer over the triple store — variables,
//     selectivity-planned joins, ontology-aware expansion, streaming
//     solutions;
//   - internal/reason: the forward-chaining materialization engine —
//     RDFS-style and user Horn rules evaluated semi-naively to a fixpoint,
//     kept incrementally correct under adds and removes
//     (delete-and-rederive), served through a provenance-tagged view;
//   - internal/server: the HTTP/JSON serving layer over the materialized
//     store — streamed BGP queries, batched incrementally-maintained
//     mutations, and a result cache invalidated by the engine's
//     deltas; the wire contract, with curl transcripts, is API.md;
//   - internal/experiments: the E1–E7, E5b, E5c and A1 experiments whose
//     tables EXPERIMENTS.md records;
//   - cmd/ontoaudit, cmd/ontoserve and cmd/benchrunner: the command-line
//     front ends (ontoaudit -query evaluates BGPs over an annotation store,
//     -materialize answers them from a forward-chained materialization;
//     ontoserve serves the materialization over HTTP — see API.md);
//   - examples/: six runnable walkthroughs — the paper's own examples plus
//     examples/server, the HTTP serving-stack tour.
//
// Benchmarks live beside the code they measure (internal/experiments
// regenerates one experiment per table, internal/query measures BGP joins at
// store scale); bench/ is the end-to-end harness. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the measured results.
package repro
