module Norros = Ss_queueing.Norros

type descr = { name : string; mean : float; sigma2 : float; hurst : float }
type decision = Admit of float | Reject of string

let descr_of_source (s : Source.t) =
  { name = s.Source.name; mean = s.Source.mean; sigma2 = s.Source.sigma2; hurst = s.Source.hurst }

(* Empty load aggregates to the zero descriptor (H = 1/2: an empty
   superposition carries no LRD claim), consistent with
   [predicted_overflow [] = 0]. *)
let aggregate = function
  | [] -> { name = "aggregate"; mean = 0.0; sigma2 = 0.0; hurst = 0.5 }
  | ds ->
    List.fold_left
      (fun acc d ->
        {
          acc with
          mean = acc.mean +. d.mean;
          sigma2 = acc.sigma2 +. d.sigma2;
          hurst = Stdlib.max acc.hurst d.hurst;
        })
      { name = "aggregate"; mean = 0.0; sigma2 = 0.0; hurst = 0.0 }
      ds

let predicted_overflow ~service ~buffer = function
  | [] ->
    if service <= 0.0 then invalid_arg "Admission.predicted_overflow: service <= 0";
    if buffer < 0.0 then invalid_arg "Admission.predicted_overflow: buffer < 0";
    0.0
  | ds ->
    if service <= 0.0 then invalid_arg "Admission.predicted_overflow: service <= 0";
    if buffer < 0.0 then invalid_arg "Admission.predicted_overflow: buffer < 0";
    let a = aggregate ds in
    if a.mean >= service then 1.0
    else if a.sigma2 <= 0.0 then 0.0 (* deterministic aggregate below capacity *)
    else
      Norros.overflow ~mean_rate:a.mean ~service ~hurst:a.hurst ~sigma2:a.sigma2
        ~buffer

let effective_bandwidth ~buffer ~epsilon d =
  if buffer <= 0.0 then invalid_arg "Admission.effective_bandwidth: buffer <= 0";
  (* NaN passes both bound tests and would reject every source. *)
  if Float.is_nan epsilon || epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Admission.effective_bandwidth: epsilon is NaN or outside (0,1)";
  if d.sigma2 <= 0.0 then invalid_arg "Admission.effective_bandwidth: sigma2 <= 0";
  if d.hurst <= 0.0 || d.hurst >= 1.0 then
    invalid_arg "Admission.effective_bandwidth: hurst outside (0,1)";
  let h = d.hurst in
  let k = Norros.kappa h in
  (* Invert log_overflow = -(c-m)^{2H} b^{2-2H} / (2 k^2 sigma2) = ln eps. *)
  let surplus =
    (-.log epsilon *. 2.0 *. k *. k *. d.sigma2 /. (buffer ** (2.0 -. (2.0 *. h))))
    ** (1.0 /. (2.0 *. h))
  in
  d.mean +. surplus

type t = {
  service : float;
  buffer : float;
  epsilon : float;
  mutable load : descr list;  (* reverse admission order *)
}

let create ~service ~buffer ~epsilon =
  if service <= 0.0 then invalid_arg "Admission.create: service <= 0";
  if buffer <= 0.0 then invalid_arg "Admission.create: buffer <= 0";
  if Float.is_nan epsilon || epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Admission.create: epsilon is NaN or outside (0,1)";
  { service; buffer; epsilon; load = [] }

let admitted t = List.rev t.load
let admitted_count t = List.length t.load

(* A malformed descriptor must be a typed [Reject], never a later
   [Invalid_argument] deep in [Norros.overflow] — CAC faces untrusted
   (possibly measured) descriptors. *)
let validate d =
  if Float.is_nan d.mean || d.mean < 0.0 then
    Some (Printf.sprintf "%s: invalid descriptor (mean = %g)" d.name d.mean)
  else if Float.is_nan d.sigma2 || d.sigma2 < 0.0 then
    Some (Printf.sprintf "%s: invalid descriptor (sigma2 = %g)" d.name d.sigma2)
  else if Float.is_nan d.hurst || d.hurst <= 0.0 || d.hurst >= 1.0 then
    Some (Printf.sprintf "%s: invalid descriptor (hurst = %g outside (0,1))" d.name d.hurst)
  else None

let decide t d =
  match validate d with
  | Some reason -> Reject reason
  | None ->
    let p = predicted_overflow ~service:t.service ~buffer:t.buffer (d :: t.load) in
    if p <= t.epsilon then Admit p
    else
      Reject
        (Printf.sprintf "%s: predicted Pr(Q>b) = %.3g exceeds epsilon = %.3g" d.name p
           t.epsilon)

let try_admit t d =
  match decide t d with
  | Admit _ as a ->
    t.load <- d :: t.load;
    a
  | Reject _ as r -> r

(* Remove the first (most recently admitted) entry named [name];
   returns [None] if absent. *)
let remove_name load name =
  let rec go acc = function
    | [] -> None
    | d :: rest when d.name = name -> Some (d, List.rev_append acc rest)
    | d :: rest -> go (d :: acc) rest
  in
  go [] load

let evict t ~name =
  match remove_name t.load name with
  | None -> false
  | Some (_, rest) ->
    t.load <- rest;
    true

module W = Ss_checkpoint.W
module R = Ss_checkpoint.R

let save_descr w d =
  W.string w d.name;
  W.float w d.mean;
  W.float w d.sigma2;
  W.float w d.hurst

let read_descr r =
  let name = R.string r in
  let mean = R.float r in
  let sigma2 = R.float r in
  let hurst = R.float r in
  { name; mean; sigma2; hurst }

(* The mutable state is the admitted-load list (reverse admission
   order); service/buffer/epsilon are construction parameters,
   serialized only to verify the resuming process rebuilt the
   controller identically. *)
let save t w =
  W.tag w "admission";
  W.float w t.service;
  W.float w t.buffer;
  W.float w t.epsilon;
  W.int w (List.length t.load);
  List.iter (save_descr w) t.load

let restore t r =
  R.tag r "admission";
  let check name saved live =
    if Int64.bits_of_float saved <> Int64.bits_of_float live then
      raise
        (Ss_checkpoint.Corrupt
           (Printf.sprintf "admission: checkpoint %s %.17g, controller has %.17g" name saved
              live))
  in
  check "service" (R.float r) t.service;
  check "buffer" (R.float r) t.buffer;
  check "epsilon" (R.float r) t.epsilon;
  let n = R.int r in
  if n < 0 then raise (Ss_checkpoint.Corrupt "admission: negative load count");
  t.load <- List.init n (fun _ -> read_descr r)

let renegotiate t ~name d =
  match remove_name t.load name with
  | None -> try_admit t d
  | Some (old, rest) -> (
    t.load <- rest;
    match try_admit t d with
    | Admit _ as a -> a
    | Reject _ as r ->
      (* Keep the old contract when the measured one doesn't fit. *)
      t.load <- old :: t.load;
      r)
