(** Source-invariant lint behind [morpheus lint] and the [@lint] dune
    alias: cross-cutting rules over [lib/] and [bin/] that the type
    system cannot express. The scanner strips nested comments and
    string/char literals, so doc-comments mentioning a banned token do
    not trip the rules.

    Rules (see {!Diag} for the catalogue):
    - E201/E202 — [Fault.point] names in code vs [docs/ROBUSTNESS.md].
    - E203 — protocol ops vs the [Protocol] parser and the
      [docs/SERVING.md] wire examples.
    - E204 — raw [Mutex]/[Condition]/wall-clock/[Random.self_init]
      outside their sanctioned modules.
    - E205 — diagnostic-code uniqueness across catalogues.
    - E206 — relational Ast nodes vs the "Relational operators"
      section of [docs/REWRITE_RULES.md], both directions.
    - E207 — [Array.unsafe_get]/[Array.unsafe_set] only inside the
      kernel modules the "Sanctioned unsafe-indexing modules" table of
      [docs/ANALYSIS.md] lists, and every listed module still uses
      them, both directions.
    - E208 — the router's forwarded ops vs the "Routed operations"
      table of [docs/SERVING.md], and the [lib/cluster] fault points
      vs the "Cluster fault points" table of [docs/ROBUSTNESS.md],
      both directions.

    Every rule but E204/E205 compares the names the code defines with
    the names a doc lists; a missing doc or section is itself a
    finding.

    The lint sits at the bottom of the library order, next to {!Sync}:
    facts owned by higher layers (the protocol-op list, the diagnostic
    catalogues, the relational nodes, the routed ops) are passed in by
    the CLI rather than depended upon. *)

type config = {
  root : string;  (** repo root; [lib/], [bin/], [docs/] live under it *)
  protocol_ops : string list;  (** [Protocol.op_names] *)
  catalogues : (string * string list) list;
      (** catalogue name → its diagnostic code names *)
  relational_nodes : string list;  (** [Ast.relational_node_names] *)
  router_ops : string list;  (** [Router.routed_op_names] *)
}

val run : config -> Diag.t list
(** Runs every rule; returns all findings (empty = clean tree). *)
