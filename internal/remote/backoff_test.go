package remote

import (
	"testing"
	"time"
)

// TestClientBackoffJitters draws the client's delay before attempt 3 a
// thousand times: every draw stays inside the policy's ×[0.5, 1.5) band
// around the nominal delay, and together they spread over more than
// ±25 % of it — a fleet of streams severed by one upstream blip must
// not reconnect in lockstep. Every stream follower — a session, the
// federation relay, the feed gateway — draws from this one function.
func TestClientBackoffJitters(t *testing.T) {
	rp := RetryPolicy{Attempts: 5, BaseDelay: 80 * time.Millisecond, MaxDelay: 10 * time.Second}
	p, err := Dial("http://upstream.invalid", "tok")
	if err != nil {
		t.Fatal(err)
	}
	p.SetRetryPolicy(rp)
	nominal := rp.BaseDelay << 2
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for i := 0; i < 1000; i++ {
		d := p.retry.delay(3)
		if d < nominal/2 || d >= nominal*3/2 {
			t.Fatalf("delay %v outside [%v, %v)", d, nominal/2, nominal*3/2)
		}
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo > nominal*3/4 || hi < nominal*5/4 {
		t.Fatalf("1000 draws span [%v, %v]; want beyond ±25%% of %v", lo, hi, nominal)
	}
}

// TestRetryDelayDefaultsAndCap: a partial policy still backs off, and a
// huge attempt number neither overflows nor exceeds the cap's band.
func TestRetryDelayDefaultsAndCap(t *testing.T) {
	if d := (RetryPolicy{Attempts: 3}).delay(1); d < DefaultRetryPolicy.BaseDelay/2 {
		t.Fatalf("zero-BaseDelay policy waits %v", d)
	}
	rp := RetryPolicy{BaseDelay: time.Second, MaxDelay: 4 * time.Second}
	for _, n := range []int{3, 10, 100, 1 << 30} {
		if d := rp.delay(n); d < 2*time.Second || d >= 6*time.Second {
			t.Fatalf("Delay(%d) = %v, want the 4s cap ×[0.5, 1.5)", n, d)
		}
	}
}
