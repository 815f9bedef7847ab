(* Kernel bench: cache-blocked/register-tiled Blas vs the frozen naive
   reference (Blas_ref), over matrix sizes d ∈ {100, 500, 1000, 2000}
   and 1/2/4 execution domains. Every timed pair is also checked
   bitwise — the tiled kernels must reproduce the reference exactly at
   every shape and domain count, so the speed column is the only thing
   allowed to differ.

   Results go to stdout and to BENCH_kernels.json. *)

open La
open Workload

let domain_counts = [ 1; 2; 4 ]

let bits_equal_mat a b =
  let ad = Dense.data a and bd = Dense.data b in
  Dense.rows a = Dense.rows b
  && Dense.cols a = Dense.cols b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       ad bd

let bits_equal_vec x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

type probe = {
  name : string;
  naive : Exec.t -> unit -> unit;
  tiled : Exec.t -> unit -> unit;
  identical : Exec.t -> bool;
}

let probes d =
  let a = Dense.gaussian ~rng:(Rng.of_int (17 + d)) d d in
  let b = Dense.gaussian ~rng:(Rng.of_int (23 + d)) d d in
  let x = Array.init d (fun i -> sin (float_of_int (i + 1))) in
  [ { name = "gemm";
      naive = (fun exec () -> ignore (Blas_ref.gemm ~exec a b));
      tiled = (fun exec () -> ignore (Blas.gemm ~exec a b));
      identical =
        (fun exec -> bits_equal_mat (Blas_ref.gemm ~exec a b) (Blas.gemm ~exec a b))
    };
    { name = "crossprod";
      naive = (fun exec () -> ignore (Blas_ref.crossprod ~exec a));
      tiled = (fun exec () -> ignore (Blas.crossprod ~exec a));
      identical =
        (fun exec ->
          bits_equal_mat (Blas_ref.crossprod ~exec a) (Blas.crossprod ~exec a))
    };
    { name = "gemm_nt";
      naive = (fun exec () -> ignore (Blas_ref.gemm_nt ~exec a b));
      tiled = (fun exec () -> ignore (Blas.gemm_nt ~exec a b));
      identical =
        (fun exec ->
          bits_equal_mat (Blas_ref.gemm_nt ~exec a b) (Blas.gemm_nt ~exec a b))
    };
    { name = "gemv";
      naive = (fun exec () -> ignore (Blas_ref.gemv ~exec a x));
      tiled = (fun exec () -> ignore (Blas.gemv ~exec a x));
      identical =
        (fun exec ->
          bits_equal_vec (Blas_ref.gemv ~exec a x) (Blas.gemv ~exec a x))
    }
  ]

let run cfg =
  Harness.section "Dense kernels: naive (Blas_ref) vs cache-blocked (Blas)" ;
  let dims = if cfg.Harness.quick then [ 100; 300 ] else [ 100; 500; 1000; 2000 ] in
  Printf.printf "tile profile: %s\nhost cores online: %d\n"
    (Tune.describe (Tune.current ()))
    Harness.cores_online ;
  let results = ref [] in
  List.iter
    (fun d ->
      let probes = probes d in
      (* big sizes amortize their own noise; cap repetitions there so
         the full sweep stays tractable *)
      let runs = if d >= 1000 then 1 else cfg.Harness.runs in
      Harness.subsection (Printf.sprintf "d = %d (runs=%d)" d runs) ;
      Printf.printf "%-10s" "kernel" ;
      List.iter
        (fun dn -> Printf.printf " %9s %9s" (Printf.sprintf "naive:%d" dn)
             (Printf.sprintf "tiled:%d" dn))
        domain_counts ;
      Printf.printf " %8s %5s\n" "speedup" "bits" ;
      List.iter
        (fun p ->
          let per_domain =
            List.map
              (fun domains ->
                let exec = Exec.make domains in
                let tn = Timing.measure ~warmup:1 ~runs (p.naive exec) in
                let tt = Timing.measure ~warmup:1 ~runs (p.tiled exec) in
                let same = p.identical exec in
                Exec.shutdown exec ;
                (domains, tn, tt, same))
              domain_counts
          in
          let _, tn1, tt1, _ = List.hd per_domain in
          let all_same = List.for_all (fun (_, _, _, s) -> s) per_domain in
          Printf.printf "%-10s" p.name ;
          List.iter
            (fun (_, tn, tt, _) ->
              Printf.printf " %9s %9s" (Harness.ts tn) (Harness.ts tt))
            per_domain ;
          Printf.printf "   %5.2fx %5s\n" (tn1 /. tt1)
            (if all_same then "ok" else "DIFF") ;
          results := (d, p.name, per_domain, all_same) :: !results)
        probes)
    dims ;
  let results = List.rev !results in
  let headline =
    List.filter_map
      (fun (d, name, per_domain, _) ->
        if name = "gemm" && d >= 500 then
          let _, tn1, tt1, _ = List.hd per_domain in
          Some (d, tn1 /. tt1)
        else None)
      results
  in
  List.iter
    (fun (d, sp) ->
      Printf.printf "\ngemm d=%d: tiled %.2fx over naive (1 domain)%s" d sp
        (if sp >= 3.0 then "  [>=3x target met]" else ""))
    headline ;
  if headline <> [] then print_newline () ;
  let open Harness in
  write_report cfg "BENCH_kernels.json"
    [ ("tile_profile", Json.Str (Tune.describe (Tune.current ())));
      ("domains", list int domain_counts);
      ("dims", list int dims);
      ( "kernels",
        list
          (fun (d, name, per_domain, all_same) ->
            let _, tn1, tt1, _ = List.hd per_domain in
            Json.Obj
              [ ("name", Json.Str name); ("dim", int d);
                ("naive_seconds", list (fun (_, tn, _, _) -> num tn) per_domain);
                ("tiled_seconds", list (fun (_, _, tt, _) -> num tt) per_domain);
                ("tiled_speedup_1dom", num (tn1 /. tt1));
                ("bitwise_identical", Json.Bool all_same)
              ])
          results )
    ]
