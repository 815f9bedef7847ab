(* Source-invariant lint: cross-cutting rules the type system cannot
   express, run over lib/ and bin/ by `morpheus lint` (and the
   @lint dune alias). The scanner is OCaml-aware enough to be
   trustworthy — nested (* *) comments, string literals (with escapes
   and {|quoted|} forms), char literals — but it is a lint, not a
   parser: rules match tokens in comment-stripped text.

   Rules (catalogue in Diag):
   - E201/E202  every `Fault.point "name"` in code is documented in
                docs/ROBUSTNESS.md, and every point the doc lists
                exists in code.
   - E203       the protocol op list, the Protocol parser, and the
                docs/SERVING.md wire examples agree.
   - E204       no raw Mutex/Condition, wall-clock, or
                Random.self_init outside the sanctioned modules.
   - E205       diagnostic codes are unique across catalogues.
   - E206       the relational Ast nodes and the docs/REWRITE_RULES.md
                table agree.
   - E207       Array.unsafe_get/unsafe_set only in the kernel modules
                the docs/ANALYSIS.md table sanctions — and every
                sanctioned module still uses them.
   - E208       the router's ops and the lib/cluster fault points agree
                with their docs/SERVING.md and docs/ROBUSTNESS.md
                tables.
   Every rule but E204/E205 is a row of [catalogues], checked both ways
   by [check_catalogue].

   The lint knows nothing about the modules above it: the CLI passes
   in the protocol ops, the diagnostic catalogues, the relational nodes
   and the routed ops, so this module stays at the bottom of the
   dependency order next to Sync. *)

type config = {
  root : string;  (* repo root; lib/ bin/ docs/ resolved under it *)
  protocol_ops : string list;
  catalogues : (string * string list) list;
      (* catalogue name -> its diagnostic code names, for E205 *)
  relational_nodes : string list;  (* Ast.relational_node_names, for E206 *)
  router_ops : string list;  (* Router.routed_op_names, for E208 *)
}

(* ---- source scanning ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* .ml files under dir, recursively, with root-relative paths using
   '/' — stable report order. *)
let ml_files root dir =
  let out = ref [] in
  let rec go rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs then
      if Sys.is_directory abs then
        Array.iter
          (fun e -> go (rel ^ "/" ^ e))
          (let es = Sys.readdir abs in
           Array.sort compare es ;
           es)
      else if Filename.check_suffix rel ".ml" then out := rel :: !out
  in
  go dir ;
  List.rev !out

(* Blank out comments (and, unless [keep_strings], string/char
   literals) with spaces, preserving every '\n' so byte offsets and
   line numbers survive. Handles nested comments, strings inside
   comments (OCaml lexes them), escapes, {id|...|id} quoted strings,
   and the char-literal / type-variable apostrophe ambiguity. *)
let strip ~keep_strings src =
  let n = String.length src in
  let buf = Bytes.of_string src in
  let blank i = if Bytes.get buf i <> '\n' then Bytes.set buf i ' ' in
  let blank_range a b =
    for i = a to b - 1 do
      blank i
    done
  in
  let i = ref 0 in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  (* consume a string literal starting at the opening quote; returns
     the index one past the closing quote *)
  let skip_string start =
    let j = ref (start + 1) in
    let stop = ref false in
    while (not !stop) && !j < n do
      (match src.[!j] with
      | '\\' -> incr j
      | '"' -> stop := true
      | _ -> ()) ;
      incr j
    done ;
    !j
  in
  let skip_quoted start =
    (* start points at the brace; find the quoted-string opener *)
    let j = ref (start + 1) in
    while
      !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done ;
    if !j < n && src.[!j] = '|' then begin
      let id = String.sub src (start + 1) (!j - start - 1) in
      let closer = "|" ^ id ^ "}" in
      let cl = String.length closer in
      let k = ref (!j + 1) in
      let stop = ref false in
      while (not !stop) && !k + cl <= n do
        if String.sub src !k cl = closer then stop := true else incr k
      done ;
      Some (if !stop then !k + cl else n)
    end
    else None
  in
  while !i < n do
    match src.[!i] with
    | '(' when peek 1 = '*' ->
      (* comment: nested, and strings inside are lexed *)
      let depth = ref 1 in
      let j = ref (!i + 2) in
      while !depth > 0 && !j < n do
        if !j + 1 < n && src.[!j] = '(' && src.[!j + 1] = '*' then begin
          incr depth ;
          j := !j + 2
        end
        else if !j + 1 < n && src.[!j] = '*' && src.[!j + 1] = ')' then begin
          decr depth ;
          j := !j + 2
        end
        else if src.[!j] = '"' then j := skip_string !j
        else incr j
      done ;
      blank_range !i !j ;
      i := !j
    | '"' ->
      let j = skip_string !i in
      if not keep_strings then blank_range !i j ;
      i := j
    | '{' -> (
      match skip_quoted !i with
      | Some j ->
        if not keep_strings then blank_range !i j ;
        i := j
      | None -> incr i)
    | '\'' ->
      (* char literal iff '\x…' or 'c'; otherwise a type variable *)
      if peek 1 = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && src.[!j] <> '\'' do
          incr j
        done ;
        let j = min n (!j + 1) in
        if not keep_strings then blank_range !i j ;
        i := j
      end
      else if peek 2 = '\'' && peek 1 <> '\'' then begin
        if not keep_strings then blank_range !i (!i + 3) ;
        i := !i + 3
      end
      else incr i
    | _ -> incr i
  done ;
  Bytes.to_string buf

let line_at src off =
  let l = ref 1 in
  for k = 0 to min off (String.length src) - 1 do
    if src.[k] = '\n' then incr l
  done ;
  !l

let ident_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Offsets of [pat] in [text] at token boundaries: the preceding char
   is not an identifier char or '.', and — when [pat] doesn't end in
   '.' — neither is the following one. *)
let token_offsets text pat =
  let pl = String.length pat and n = String.length text in
  let tail_open = pl > 0 && pat.[pl - 1] = '.' in
  let out = ref [] in
  let i = ref 0 in
  while !i + pl <= n do
    if
      String.sub text !i pl = pat
      && (!i = 0 || (not (ident_char text.[!i - 1])) && text.[!i - 1] <> '.')
      && (tail_open || !i + pl >= n || not (ident_char text.[!i + pl]))
    then out := !i :: !out ;
    incr i
  done ;
  List.rev !out

(* ---- doc <-> code catalogues: E201/E202, E203, E206, E207, E208 ---- *)

(* The token is split so that scanning this very file (lint.ml is in
   lib/) cannot mistake the pattern for a call site. *)
let fault_point_token = "Fault." ^ "point"

let unsafe_tokens = [ "Array.unsafe_get"; "Array.unsafe_set" ]

(* [(name, line)] for every [token "name"] in [text] (blanks allowed
   between): Fault.point calls in code, "op": wire examples in a doc,
   Some "op" parser cases. *)
let quoted_after token text =
  let n = String.length text in
  List.filter_map
    (fun off ->
      let j = ref (off + String.length token) in
      while !j < n && (text.[!j] = ' ' || text.[!j] = '\n') do
        incr j
      done ;
      if !j < n && text.[!j] = '"' then begin
        let k = ref (!j + 1) in
        while !k < n && text.[!k] <> '"' do
          incr k
        done ;
        Some (String.sub text (!j + 1) (!k - !j - 1), line_at text off)
      end
      else None)
    (token_offsets text token)

(* [Ok [(cell, line)]] for the backticked cells satisfying [keep] on
   the `|`-table rows of [doc] — across the doc, or only below the
   `## ` heading that starts with [section] ([Error section] when the
   doc has no such heading). Prose mentions stay out of scope: only
   the tables are authoritative. *)
let table_cells section ~keep doc =
  let found = ref (section = None) and inside = ref (section = None) in
  let out = ref [] in
  List.iteri
    (fun k line ->
      match section with
      | Some heading when String.starts_with ~prefix:heading line ->
        found := true ;
        inside := true
      | Some _ when String.starts_with ~prefix:"## " line -> inside := false
      | _ when !inside && String.starts_with ~prefix:"|" line ->
        (* odd pieces are backticked; the last has no closing tick *)
        let pieces = String.split_on_char '`' line in
        let last = List.length pieces - 1 in
        List.iteri
          (fun i cell ->
            if i mod 2 = 1 && i < last && keep cell then
              out := (cell, k + 1) :: !out)
          pieces
      | _ -> ())
    (String.split_on_char '\n' doc) ;
  match section with
  | Some heading when not !found -> Error heading
  | _ -> Ok (List.rev !out)

(* How a doc lists its names. *)
type listing =
  | Table of string option
      (* backticked table cells, across the doc or in one section *)
  | Quoted of string  (* names quoted after a token; see quoted_after *)

(* One doc <-> code rule: the names the code defines must be exactly
   the names [doc] lists, each direction with its own code. *)
type catalogue = {
  doc : string;  (* root-relative; an .ml file is read comment-stripped *)
  listing : listing;
  keep : string -> bool;  (* which listed tokens are names *)
  what : string;  (* what a name is, for the messages *)
  defined : (string * string) list;  (* name -> where the code has it *)
  undocumented : Diag.code;  (* a defined name the doc does not list *)
  stale : Diag.code;  (* no doc or section, or a name nothing defines *)
}

let check_catalogue root c =
  let path = Filename.concat root c.doc in
  if not (Sys.file_exists path) then
    [ Diag.make c.stale ~where:c.doc "%s is missing: it must list every %s"
        c.doc c.what ]
  else begin
    let text = read_file path in
    let text =
      if Filename.check_suffix c.doc ".ml" then strip ~keep_strings:true text
      else text
    in
    let listed =
      match c.listing with
      | Table section -> table_cells section ~keep:c.keep text
      | Quoted token ->
        Ok (List.filter (fun (s, _) -> c.keep s) (quoted_after token text))
    in
    match listed with
    | Error heading ->
      [ Diag.make c.stale ~where:c.doc
          "%s has no %S section: it must list every %s" c.doc heading c.what ]
    | Ok listed ->
      let listed_in =
        match c.listing with
        | Table None -> c.doc
        | Table (Some heading) -> c.doc ^ " under " ^ heading
        | Quoted token -> Printf.sprintf "%s as %s \"...\"" c.doc token
      in
      List.filter_map
        (fun (name, where) ->
          if List.mem_assoc name listed then None
          else
            Some
              (Diag.make c.undocumented ~where "%s %S is not documented in %s"
                 c.what name listed_in))
        c.defined
      @ List.filter_map
          (fun (name, line) ->
            if List.mem_assoc name c.defined then None
            else
              Some
                (Diag.make c.stale
                   ~where:(Printf.sprintf "%s:%d" c.doc line)
                   "%s lists %s %S, which the code does not define" c.doc
                   c.what name))
          listed
  end

let lower_word extra s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | '0' .. '9' | '_' -> true
         | ch -> String.contains extra ch)
       s

let is_point s = String.contains s '.' && lower_word "." s
let is_module s = Filename.check_suffix s ".ml" && lower_word "./" s

let is_node s =
  s <> ""
  && (match s.[0] with 'A' .. 'Z' -> true | _ -> false)
  && String.for_all ident_char s

(* Every doc <-> code rule as one row. [sources] keep string literals
   (fault-point names), [sources_bare] drop them (unsafe tokens). *)
let catalogues cfg ~sources ~sources_bare =
  let at doc names = List.map (fun name -> (name, doc)) names in
  let fault_points =
    List.concat_map
      (fun (rel, text) ->
        List.map
          (fun (name, line) -> (name, Printf.sprintf "%s:%d" rel line))
          (quoted_after fault_point_token text))
      sources
  in
  let unsafe_uses =
    List.concat_map
      (fun (rel, text) ->
        List.concat_map
          (fun tok ->
            List.map
              (fun off -> (rel, Printf.sprintf "%s:%d" rel (line_at text off)))
              (token_offsets text tok))
          unsafe_tokens)
      sources_bare
  in
  let robustness = "docs/ROBUSTNESS.md" and serving = "docs/SERVING.md" in
  let protocol = "lib/serve/protocol.ml" in
  [ { doc = robustness;
      listing = Table None;
      keep = is_point;
      what = "fault point";
      defined = fault_points;
      undocumented = Diag.E201;
      stale = Diag.E202
    };
    { doc = serving;
      listing = Quoted {|"op":|};
      keep = Fun.const true;
      what = "protocol op";
      defined = at serving cfg.protocol_ops;
      undocumented = Diag.E203;
      stale = Diag.E203
    };
    (* Some "x" also matches strings that are not ops: only op names
       count as parser cases, so a case cannot be stale *)
    { doc = protocol;
      listing = Quoted "Some";
      keep = (fun s -> List.mem s cfg.protocol_ops);
      what = "protocol op";
      defined = at protocol cfg.protocol_ops;
      undocumented = Diag.E203;
      stale = Diag.E203
    };
    (* a module that dropped its unsafe indexing loses its row rather
       than keeping a blanket license *)
    { doc = "docs/ANALYSIS.md";
      listing = Table (Some "## Sanctioned unsafe-indexing modules");
      keep = is_module;
      what = "unsafe-indexing module";
      defined = unsafe_uses;
      undocumented = Diag.E207;
      stale = Diag.E207
    };
    { doc = "docs/REWRITE_RULES.md";
      listing = Table (Some "## Relational operators");
      keep = is_node;
      what = "relational node";
      defined = at "docs/REWRITE_RULES.md" cfg.relational_nodes;
      undocumented = Diag.E206;
      stale = Diag.E206
    };
    { doc = serving;
      listing = Table (Some "## Routed operations");
      keep = lower_word "";
      what = "routed op";
      defined = at serving cfg.router_ops;
      undocumented = Diag.E208;
      stale = Diag.E208
    };
    (* the global row above sees these points too; this one pins them
       to the cluster section *)
    { doc = robustness;
      listing = Table (Some "## Cluster fault points");
      keep = is_point;
      what = "cluster fault point";
      defined =
        List.filter
          (fun (_, where) -> String.starts_with ~prefix:"lib/cluster/" where)
          fault_points;
      undocumented = Diag.E208;
      stale = Diag.E208
    }
  ]

(* ---- rule E204: raw primitives outside sanctioned modules ---- *)

(* (token, sanctioned files, why) — matched against comment- and
   string-stripped text, so mentioning a token in a docstring is
   fine. *)
let sanctioned =
  [ ( "Mutex.",
      [ "lib/analysis/sync.ml" ],
      "locks must be named: use Analysis.Sync" );
    ( "Condition.",
      [ "lib/analysis/sync.ml" ],
      "condition variables must pair with Sync locks: use Analysis.Sync" );
    ( "Unix.gettimeofday",
      [ "lib/serve/clock.ml"; "lib/workload/timing.ml" ],
      "wall-clock reads go through Clock/Timing so tests can fake time" );
    ( "Unix.time",
      [ "lib/serve/clock.ml"; "lib/workload/timing.ml" ],
      "wall-clock reads go through Clock/Timing so tests can fake time" );
    ( "Random.self_init",
      [],
      "nondeterministic seeding breaks reproducibility: thread a seed" )
  ]

let check_primitives ~sources_bare =
  List.concat_map
    (fun (rel, text) ->
      List.concat_map
        (fun (tok, allowed, why) ->
          if List.mem rel allowed then []
          else
            List.map
              (fun off ->
                Diag.make Diag.E204
                  ~where:(Printf.sprintf "%s:%d" rel (line_at text off))
                  "raw %s outside %s (%s)" tok
                  (match allowed with
                  | [] -> "any module"
                  | l -> String.concat ", " l)
                  why)
              (token_offsets text tok))
        sanctioned)
    sources_bare

(* ---- rule E205: diagnostic-code uniqueness across catalogues ---- *)

let check_codes ~catalogues =
  let seen : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.concat_map
    (fun (cat, codes) ->
      List.filter_map
        (fun code ->
          match Hashtbl.find_opt seen code with
          | Some other ->
            Some
              (Diag.make Diag.E205
                 ~where:(other ^ "/" ^ cat)
                 "diagnostic code %s is defined by both %s and %s" code other
                 cat)
          | None ->
            Hashtbl.add seen code cat ;
            None)
        codes)
    catalogues

(* ---- driver ---- *)

let run cfg =
  let files = ml_files cfg.root "lib" @ ml_files cfg.root "bin" in
  let raw = List.map (fun rel -> (rel, read_file (Filename.concat cfg.root rel))) files in
  let sources =
    List.map (fun (rel, src) -> (rel, strip ~keep_strings:true src)) raw
  in
  let sources_bare =
    List.map (fun (rel, src) -> (rel, strip ~keep_strings:false src)) raw
  in
  List.concat_map (check_catalogue cfg.root)
    (catalogues cfg ~sources ~sources_bare)
  @ check_primitives ~sources_bare
  @ check_codes ~catalogues:cfg.catalogues
