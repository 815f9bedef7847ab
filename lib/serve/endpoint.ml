(* One address type for Unix-domain and TCP transports. The parsing
   rule keeps every pre-cluster call site working unchanged: an
   unadorned path is a Unix socket, and "host:port" is TCP only when
   the port is all digits and the host cannot be a path. IPv6 literals
   use the bracket form, "[::1]:8080".

   This module is also the transport-level chaos seam: every accept,
   read, and write in the serving stack goes through {!accept},
   {!read}, and {!write_all} below, which carry the endpoint.* fault
   points — so partitions, stalled links, and torn frames are
   injectable at the byte level, not just at logical step points. *)

type t = Unix_path of string | Tcp of string * int

let all_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let port_of s =
  if not (all_digits s) then None
  else
    match int_of_string_opt s with
    | Some p when p >= 0 && p <= 65535 -> Some p
    | _ -> None

(* "[v6addr]:port" → Some (v6addr, port_string). *)
let split_bracketed s =
  if String.length s < 4 || s.[0] <> '[' then None
  else
    match String.index_opt s ']' with
    | Some i
      when i > 1
           && i + 1 < String.length s
           && s.[i + 1] = ':'
           && i + 2 < String.length s ->
      Some (String.sub s 1 (i - 1), String.sub s (i + 2) (String.length s - i - 2))
    | _ -> None

let split_last_colon s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let of_string_result s =
  let bad reason = Error (Printf.sprintf "bad endpoint %S: %s" s reason) in
  let tcp_strict rest =
    (* explicit tcp: form — reject instead of falling back to a path *)
    match split_bracketed rest with
    | Some (host, port_s) -> (
      match port_of port_s with
      | Some port -> Ok (Tcp (host, port))
      | None -> bad "port must be 0..65535")
    | None -> (
      match split_last_colon rest with
      | None -> bad "tcp endpoint wants HOST:PORT"
      | Some ("", _) -> bad "empty host"
      | Some (_, "") -> bad "empty port"
      | Some (host, port_s) -> (
        match port_of port_s with
        | None -> bad "port must be 0..65535"
        | Some _ when String.contains host '/' -> bad "host may not contain '/'"
        | Some port -> Ok (Tcp (host, port))))
  in
  if s = "" then bad "empty endpoint"
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then begin
    match String.sub s 5 (String.length s - 5) with
    | "" -> bad "empty socket path"
    | path -> Ok (Unix_path path)
  end
  else if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    tcp_strict (String.sub s 4 (String.length s - 4))
  else
    (* bare form: TCP when it can only be an address, a path otherwise *)
    match split_bracketed s with
    | Some (host, port_s) -> (
      match port_of port_s with
      | Some port -> Ok (Tcp (host, port))
      | None -> bad "port must be 0..65535")
    | None -> (
      match split_last_colon s with
      | Some (host, port_s) when all_digits port_s -> (
        match (host, port_of port_s) with
        | "", _ -> bad "empty host"
        | host, Some port when not (String.contains host '/') ->
          Ok (Tcp (host, port))
        | _ -> Ok (Unix_path s))
      | _ -> Ok (Unix_path s))

let of_string s =
  match of_string_result s with
  | Ok e -> e
  | Error msg -> invalid_arg ("Endpoint.of_string: " ^ msg)

let to_string = function
  | Unix_path p -> p
  | Tcp (host, port) ->
    if String.contains host ':' then Printf.sprintf "[%s]:%d" host port
    else Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | addr -> Unix.ADDR_INET (addr, port)
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
        invalid_arg ("Endpoint.sockaddr: host resolves to nothing: " ^ host)
      | { Unix.h_addr_list; _ } -> Unix.ADDR_INET (h_addr_list.(0), port)
      | exception Not_found ->
        invalid_arg ("Endpoint.sockaddr: unknown host " ^ host)))

(* Derived from the resolved address so IPv6 literals get PF_INET6. *)
let domain e = Unix.domain_of_sockaddr (sockaddr e)

let listen ?(backlog = 64) e =
  (match e with
  | Unix_path p -> if Sys.file_exists p then Sys.remove p
  | Tcp _ -> ()) ;
  let fd = Unix.socket ~cloexec:true (domain e) SOCK_STREAM 0 in
  (try
     (match e with
     | Tcp _ -> Unix.setsockopt fd SO_REUSEADDR true
     | Unix_path _ -> ()) ;
     Unix.bind fd (sockaddr e) ;
     Unix.listen fd backlog
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ()) ;
     raise exn) ;
  fd

let connect ?timeout e =
  let fd = Unix.socket ~cloexec:true (domain e) SOCK_STREAM 0 in
  (try
     (* Linux applies SO_SNDTIMEO to a blocking connect: when the
        peer's accept backlog is full, the connect fails at the bound
        instead of after the SYN retries (about two minutes) *)
     Option.iter (Unix.setsockopt_float fd SO_SNDTIMEO) timeout ;
     Unix.connect fd (sockaddr e) ;
     if timeout <> None then Unix.setsockopt_float fd SO_SNDTIMEO 0.0 ;
     match e with
     | Tcp _ -> Unix.setsockopt fd TCP_NODELAY true
     | Unix_path _ -> ()
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ()) ;
     raise exn) ;
  fd

let bound_endpoint e fd =
  match e with
  | Unix_path _ -> e
  | Tcp (host, _) -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | _ -> e)

let cleanup = function
  | Unix_path p -> (
    if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ()

(* ---- fault-pointed transport I/O ---- *)

let accept fd =
  Fault.point "endpoint.accept" ;
  Unix.accept ~cloexec:true fd

let read fd buf off len =
  Fault.point "endpoint.read" ;
  Unix.read fd buf off len

(* A torn write is the nastiest TCP failure mode for a framed protocol:
   part of the frame reaches the peer, then the connection dies. The
   fault writes a prefix of the payload and raises, so the peer's
   buffered reader holds half a line that must be discarded at EOF —
   never parsed, never surfaced. *)
let write_all fd s =
  Fault.point "endpoint.stall" ;
  let bytes = Bytes.of_string s in
  let len = Bytes.length bytes in
  let torn =
    match Fault.point "endpoint.write.torn" with
    | () -> None
    | exception Fault.Injected _ -> Some (len / 2)
  in
  let limit = match torn with Some l -> l | None -> len in
  let off = ref 0 in
  while !off < limit do
    off := !off + Unix.write fd bytes !off (limit - !off)
  done ;
  match torn with
  | Some _ -> raise (Fault.Injected "endpoint.write.torn")
  | None -> ()
