package batterylab

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestBackendNodesAgree: both backends list a deployment's vantage
// points through the server's one census reading, health included.
func TestBackendNodesAgree(t *testing.T) {
	clock := VirtualClock()
	dep, err := NewDeployment(clock, DeploymentConfig{Seed: 3, SkipBrowsers: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := NewVantagePoint(clock, dep.Platform, VantagePointConfig{Name: "node2", Seed: 4, SkipBrowsers: true}); err != nil {
		t.Fatal(err)
	}
	token, err := NewAPIToken(dep.Platform, "alice", "experimenter")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dep.Platform.Access.Handler())
	defer srv.Close()
	rb, err := RemoteBackend(srv.URL, token)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	local, err := LocalBackend(dep.Platform).Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := rb.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 2 || local[0].Health == "" {
		t.Fatalf("local listing %+v, want two nodes with their health", local)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("local listing %+v, remote %+v", local, remote)
	}
}
