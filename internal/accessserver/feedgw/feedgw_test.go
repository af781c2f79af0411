package feedgw

import (
	"testing"
	"time"

	"batterylab/internal/remote"
)

// TestGatewayBackoffJitters is remote's TestClientBackoffJitters on the
// gateway: given the same policy, its upstream reconnects draw their
// delay from the same jittered function, so the streams one gateway
// carries do not all reconnect in the same instant after an upstream
// blip.
func TestGatewayBackoffJitters(t *testing.T) {
	rp := remote.RetryPolicy{Attempts: 5, BaseDelay: 80 * time.Millisecond, MaxDelay: 10 * time.Second}
	g := New("http://upstream.invalid")
	g.SetRetryPolicy(rp)
	nominal := rp.BaseDelay << 2
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for i := 0; i < 1000; i++ {
		d := g.retry.Delay(3)
		if d < nominal/2 || d >= nominal*3/2 {
			t.Fatalf("delay %v outside [%v, %v)", d, nominal/2, nominal*3/2)
		}
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo > nominal*3/4 || hi < nominal*5/4 {
		t.Fatalf("1000 draws span [%v, %v]; want beyond ±25%% of %v", lo, hi, nominal)
	}
}
