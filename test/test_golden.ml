(* Golden output of the core analysis on one fixed app.  Each report is
   pinned as its report line, its provenance without timing and its SSG
   dump.  Counts and verdicts cannot see a reordered residual, a renumbered
   SSG node or a reordered edge; these literals can. *)

module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks
module D = Backdroid.Driver

let golden_app () =
  let plant shape sink insecure = { G.shape; sink; insecure } in
  G.generate
    { G.default_config with
      G.seed = 2021;
      name = "com.golden";
      filler_classes = 2;
      plants =
        [ plant Shape.Lifecycle_field Sinks.ssl_factory true;
          plant Shape.Icc_explicit Sinks.cipher true;
          plant Shape.Icc_implicit Sinks.cipher true;
          plant Shape.Async_task Sinks.ssl_factory true;
          plant Shape.Super_class Sinks.cipher true;
          plant Shape.Callback Sinks.cipher false ] }

let render_report (rep : D.sink_report) =
  String.concat "\n"
    (Serve.Render.report_line rep
     :: Backdroid.Provenance.render ~timing:false rep.D.prov
     :: (match rep.D.ssg with
         | Some ssg -> [ Fmt.str "%a" Backdroid.Ssg.pp ssg ]
         | None -> []))

let rendered () =
  let app = golden_app () in
  let r = D.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
  List.map render_report r.D.reports

(* One entry per report, in report order.  A change that moves a byte
   here changes the analysis output, not only its speed. *)
let expected =
  [ {|  [INSECURE] crypto-cipher at <com.golden.s1.fota.HttpServerService: int onStartCommand(android.content.Intent,int,int)>:6 reachable=true fact="AES/ECB/PKCS5Padding"
    source: fresh
    strategies: lifecycle x1 (0 callers), icc x1 (1 callers)
    searches: 10 issued — caller 9, class 1
    budget: 1/4000 work, depth cap 48
    ssg: 4 nodes, 1 edges

SSG for sink crypto-cipher at <com.golden.s1.fota.HttpServerService: int onStartCommand(android.content.Intent,int,int)>:6 (reachable=true)
  block <com.golden.s1.fota.HttpServerService: int onStartCommand(android.content.Intent,int,int)>
    [2]   1: $r1 := @parameter0: android.content.Intent
    [1]   5: $r5 = virtualinvoke $r1.<android.content.Intent: java.lang.String getStringExtra(java.lang.String)>($r4)
    [0]   6: $r6 = staticinvoke <javax.crypto.Cipher: javax.crypto.Cipher getInstance(java.lang.String)>($r5)
  block <com.golden.s1.IccMainActivity: void onCreate(android.os.Bundle)>
    [3]   4: $r4 = new android.content.Intent
  edge icc <com.golden.s1.IccMainActivity: void onCreate(android.os.Bundle)>:8 ==> <com.golden.s1.fota.HttpServerService: int onStartCommand(android.content.Intent,int,int)>
  entry <com.golden.s1.IccMainActivity: void onCreate(android.os.Bundle)>
|};
    {|  [INSECURE] crypto-cipher at <com.golden.s2.rcv.ConfigReceiver: void onReceive(android.content.Context,android.content.Intent)>:5 reachable=true fact="AES/ECB/PKCS5Padding"
    source: fresh
    strategies: lifecycle x1 (0 callers), icc x1 (1 callers)
    searches: 11 issued — caller 9, class 1, raw 1
    budget: 1/4000 work, depth cap 48
    ssg: 4 nodes, 1 edges

SSG for sink crypto-cipher at <com.golden.s2.rcv.ConfigReceiver: void onReceive(android.content.Context,android.content.Intent)>:5 (reachable=true)
  block <com.golden.s2.rcv.ConfigReceiver: void onReceive(android.content.Context,android.content.Intent)>
    [2]   2: $r2 := @parameter1: android.content.Intent
    [1]   4: $r4 = virtualinvoke $r2.<android.content.Intent: java.lang.String getStringExtra(java.lang.String)>($r3)
    [0]   5: $r5 = staticinvoke <javax.crypto.Cipher: javax.crypto.Cipher getInstance(java.lang.String)>($r4)
  block <com.golden.s2.BcMainActivity: void onCreate(android.os.Bundle)>
    [3]   3: $r3 = new android.content.Intent
  edge icc <com.golden.s2.BcMainActivity: void onCreate(android.os.Bundle)>:9 ==> <com.golden.s2.rcv.ConfigReceiver: void onReceive(android.content.Context,android.content.Intent)>
  entry <com.golden.s2.BcMainActivity: void onCreate(android.os.Bundle)>
|};
    {|  [INSECURE] crypto-cipher at <com.golden.s4.server.NetServer: void start(java.lang.String)>:2 reachable=true fact="AES/ECB/PKCS5Padding"
    source: fresh
    strategies: advanced x1 (1 callers), lifecycle x1 (0 callers)
    searches: 1 issued — caller 1
    budget: 1/4000 work, depth cap 48
    ssg: 3 nodes, 1 edges

SSG for sink crypto-cipher at <com.golden.s4.server.NetServer: void start(java.lang.String)>:2 (reachable=true)
  block <com.golden.s4.server.NetServer: void start(java.lang.String)>
    [1]   1: $r1 := @parameter0: java.lang.String
    [0]   2: $r2 = staticinvoke <javax.crypto.Cipher: javax.crypto.Cipher getInstance(java.lang.String)>($r1)
  block <com.golden.s4.SuMainActivity: void onCreate(android.os.Bundle)>
    [2]   2: $r2 = "AES/ECB/PKCS5Padding"
  edge async <com.golden.s4.SuMainActivity: void onCreate(android.os.Bundle)> -> <com.golden.s4.server.NetServer: void start(java.lang.String)> (ending <com.golden.s4.server.SuperServer: void start(java.lang.String)>, chain 0)
  entry <com.golden.s4.SuMainActivity: void onCreate(android.os.Bundle)>
|};
    {|  [secure] crypto-cipher at <com.golden.s5.ui.ClickHandler: void onClick(android.view.View)>:3 reachable=true fact="AES/GCM/NoPadding"
    source: fresh
    strategies: advanced x1 (1 callers), lifecycle x1 (0 callers)
    searches: 1 issued — caller 1
    budget: 1/4000 work, depth cap 48
    ssg: 8 nodes, 2 edges

SSG for sink crypto-cipher at <com.golden.s5.ui.ClickHandler: void onClick(android.view.View)>:3 (reachable=true)
  block <com.golden.s5.UiMainActivity: void onCreate(android.os.Bundle)>
    [7]   2: $r2 = "AES/GCM/NoPadding"
    [6]   5: $r4 = new com.golden.s5.ui.ClickHandler
    [3]   6: specialinvoke $r4.<com.golden.s5.ui.ClickHandler: void <init>(java.lang.String)>($r2)
  block <com.golden.s5.ui.ClickHandler: void <init>(java.lang.String)>
    [5]   1: $r1 := @parameter0: java.lang.String
    [4]   3: $r0.<com.golden.s5.ui.ClickHandler: java.lang.String spec> = $r1
  block <com.golden.s5.ui.ClickHandler: void onClick(android.view.View)>
    [2]   0: $r0 := @this: com.golden.s5.ui.ClickHandler
    [1]   2: $r2 = $r0.<com.golden.s5.ui.ClickHandler: java.lang.String spec>
    [0]   3: $r3 = staticinvoke <javax.crypto.Cipher: javax.crypto.Cipher getInstance(java.lang.String)>($r2)
  edge contained <com.golden.s5.UiMainActivity: void onCreate(android.os.Bundle)>:6 <-> <com.golden.s5.ui.ClickHandler: void <init>(java.lang.String)>
  edge async <com.golden.s5.UiMainActivity: void onCreate(android.os.Bundle)> -> <com.golden.s5.ui.ClickHandler: void onClick(android.view.View)> (ending <android.view.View: void setOnClickListener(android.view.View$OnClickListener)>, chain 0)
  entry <com.golden.s5.UiMainActivity: void onCreate(android.os.Bundle)>
|};
    {|  [INSECURE] ssl-hostname at <com.golden.s0.LcMainActivity: void onResume()>:3 reachable=true fact=<org.apache.http.conn.ssl.SSLSocketFactory: org.apache.http.conn.ssl.X509HostnameVerifier ALLOW_ALL_HOSTNAME_VERIFIER>
    source: fresh
    strategies: lifecycle x2 (1 callers)
    searches: 1 issued — field 1
    budget: 1/4000 work, depth cap 48
    ssg: 5 nodes, 1 edges

SSG for sink ssl-hostname at <com.golden.s0.LcMainActivity: void onResume()>:3 (reachable=true)
  block <com.golden.s0.LcMainActivity: void onResume()>
    [2]   0: $r0 := @this: com.golden.s0.LcMainActivity
    [1]   1: $r1 = $r0.<com.golden.s0.LcMainActivity: org.apache.http.conn.ssl.X509HostnameVerifier spec>
    [0]   3: virtualinvoke $r2.<org.apache.http.conn.ssl.SSLSocketFactory: void setHostnameVerifier(org.apache.http.conn.ssl.X509HostnameVerifier)>($r1)
  block <com.golden.s0.LcMainActivity: void onCreate(android.os.Bundle)>
    [4]   2: $r2 = <org.apache.http.conn.ssl.SSLSocketFactory: org.apache.http.conn.ssl.X509HostnameVerifier ALLOW_ALL_HOSTNAME_VERIFIER>
    [3]   3: $r0.<com.golden.s0.LcMainActivity: org.apache.http.conn.ssl.X509HostnameVerifier spec> = $r2
  edge lifecycle <com.golden.s0.LcMainActivity: void onCreate(android.os.Bundle)> >> <com.golden.s0.LcMainActivity: void onResume()>
  entry <com.golden.s0.LcMainActivity: void onCreate(android.os.Bundle)>
  entry <com.golden.s0.LcMainActivity: void onResume()>
|};
    {|  [INSECURE] ssl-hostname at <com.golden.s3.task.UploadTask: java.lang.Object doInBackground(java.lang.Object[])>:4 reachable=true fact=<org.apache.http.conn.ssl.SSLSocketFactory: org.apache.http.conn.ssl.X509HostnameVerifier ALLOW_ALL_HOSTNAME_VERIFIER>
    source: fresh
    strategies: advanced x1 (1 callers), lifecycle x1 (0 callers)
    searches: 2 issued — caller 1, field 1
    budget: 1/4000 work, depth cap 48
    ssg: 8 nodes, 2 edges

SSG for sink ssl-hostname at <com.golden.s3.task.UploadTask: java.lang.Object doInBackground(java.lang.Object[])>:4 (reachable=true)
  block <com.golden.s3.task.UploadTask: java.lang.Object doInBackground(java.lang.Object[])>
    [2]   0: $r0 := @this: com.golden.s3.task.UploadTask
    [1]   2: $r2 = $r0.<com.golden.s3.task.UploadTask: org.apache.http.conn.ssl.X509HostnameVerifier spec>
    [0]   4: virtualinvoke $r3.<org.apache.http.conn.ssl.SSLSocketFactory: void setHostnameVerifier(org.apache.http.conn.ssl.X509HostnameVerifier)>($r2)
  block <com.golden.s3.task.UploadTask: void <init>(org.apache.http.conn.ssl.X509HostnameVerifier)>
    [5]   1: $r1 := @parameter0: org.apache.http.conn.ssl.X509HostnameVerifier
    [4]   3: $r0.<com.golden.s3.task.UploadTask: org.apache.http.conn.ssl.X509HostnameVerifier spec> = $r1
  block <com.golden.s3.AtMainActivity: void onCreate(android.os.Bundle)>
    [7]   2: $r2 = <org.apache.http.conn.ssl.SSLSocketFactory: org.apache.http.conn.ssl.X509HostnameVerifier ALLOW_ALL_HOSTNAME_VERIFIER>
    [6]   3: $r3 = new com.golden.s3.task.UploadTask
    [3]   4: specialinvoke $r3.<com.golden.s3.task.UploadTask: void <init>(org.apache.http.conn.ssl.X509HostnameVerifier)>($r2)
  edge contained <com.golden.s3.AtMainActivity: void onCreate(android.os.Bundle)>:4 <-> <com.golden.s3.task.UploadTask: void <init>(org.apache.http.conn.ssl.X509HostnameVerifier)>
  edge async <com.golden.s3.AtMainActivity: void onCreate(android.os.Bundle)> -> <com.golden.s3.task.UploadTask: java.lang.Object doInBackground(java.lang.Object[])> (ending <android.os.AsyncTask: android.os.AsyncTask execute(java.lang.Object[])>, chain 0)
  entry <com.golden.s3.AtMainActivity: void onCreate(android.os.Bundle)>
|} ]

let test_golden () =
  Alcotest.(check (list string)) "reports, provenance and SSGs" expected
    (rendered ())

let suites =
  [ "core.golden",
    [ Alcotest.test_case "fixed six-shape app" `Quick test_golden ] ]
