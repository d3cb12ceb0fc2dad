package reporter

import (
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// clusterField places n nodes inside a disk of the given radius (a single
// cluster) under F channels.
func clusterField(n, channels int, radius float64, seed int64) (*phy.Field, model.Params) {
	rnd := rand.New(rand.NewSource(seed))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * radius / 1.5,
			Y: (rnd.Float64()*2 - 1) * radius / 1.5,
		}
	}
	p := model.Default(channels, 64)
	return phy.NewField(p, pos), p
}

func TestElectMinIDPerChannel(t *testing.T) {
	const n, channels = 20, 4
	f, p := clusterField(n, channels, 0.05, 3)
	cfg := DefaultElectConfig(0.14)
	// Channel assignment round-robin so minima are known: channel c gets
	// nodes c, c+4, c+8, ... → min on channel c is node c.
	e := sim.NewEngine(f, 5)
	isLeader := make([]bool, n)
	steppers := make([]sim.Stepper, n)
	for i := range steppers {
		steppers[i] = electStepper(cfg, i%channels, 0, &isLeader[i])
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	_ = p
	for i, l := range isLeader {
		want := i < channels
		if l != want {
			t.Errorf("node %d leader = %v, want %v", i, l, want)
		}
	}
}

func TestElectTwoClustersIsolated(t *testing.T) {
	// Two clusters far apart, same channel, different dominator IDs: the
	// Dom field must keep elections independent even if signals carried.
	const perCluster = 8
	pos := make([]geo.Point, 2*perCluster)
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < perCluster; i++ {
		pos[i] = geo.Point{X: rnd.Float64() * 0.05, Y: rnd.Float64() * 0.05}
		pos[perCluster+i] = geo.Point{X: 5 + rnd.Float64()*0.05, Y: rnd.Float64() * 0.05}
	}
	p := model.Default(1, 64)
	e := sim.NewEngine(phy.NewField(p, pos), 7)
	cfg := DefaultElectConfig(0.14)
	isLeader := make([]bool, len(pos))
	steppers := make([]sim.Stepper, len(pos))
	for i := range steppers {
		dom := 0
		if i >= perCluster {
			dom = perCluster
		}
		steppers[i] = electStepper(cfg, 0, dom, &isLeader[i])
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	for i, l := range isLeader {
		want := i == 0 || i == perCluster
		if l != want {
			t.Errorf("node %d leader = %v, want %v", i, l, want)
		}
	}
}

func TestElectSlotBudget(t *testing.T) {
	p := model.Default(1, 64)
	cfg := DefaultElectConfig(0.14)
	pos := []geo.Point{{X: 0}, {X: 0.02}}
	e := sim.NewEngine(phy.NewField(p, pos), 2)
	after := make([]int, 2)
	if _, err := e.Run([]sim.Stepper{
		&sim.FragStepper{Frag: &ElectFrag{Cfg: cfg}, Finish: func(sc *sim.StepCtx) { after[0] = sc.Slot() }},
		&sim.FragStepper{Frag: &sim.IdleFrag{K: cfg.SlotBudget(p)}, Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() }},
	}); err != nil {
		t.Fatal(err)
	}
	want := cfg.SlotBudget(p)
	if after[0] != want || after[1] != want {
		t.Errorf("budgets %v, want %d", after, want)
	}
}

// electStepper runs one member's election on channel for cluster dom and
// records whether the node ended as the channel's reporter.
func electStepper(cfg ElectConfig, channel, dom int, leader *bool) sim.Stepper {
	f := &ElectFrag{Cfg: cfg, Channel: channel, Dom: dom}
	return &sim.FragStepper{Frag: f, Finish: func(sc *sim.StepCtx) { *leader = f.Min == sc.ID() }}
}

// castStepper plays one tree role in cluster 0: an up pass folding value
// with op, then (with down) a down pass splitting the root total with
// coloringSplit. A negative role is a bystander idling through the passes.
type castStepper struct {
	cfg  CastConfig
	role int
	down bool

	up    CastUpFrag
	dn    *CastDownFrag
	idle  *sim.IdleFrag
	start bool
}

func (s *castStepper) Step(sc *sim.StepCtx) {
	if !s.start {
		s.start = true
		if s.role < 0 {
			passes := 1
			if s.down {
				passes = 2
			}
			s.idle = &sim.IdleFrag{K: passes * s.cfg.SlotBudget()}
		}
	}
	if s.idle != nil {
		if s.idle.Feed(sc) {
			sc.Done()
		}
		return
	}
	if s.dn == nil {
		if !s.up.Feed(sc) {
			return
		}
		if !s.down {
			sc.Done()
			return
		}
		s.dn = &CastDownFrag{
			Cfg: s.cfg, Role: s.role, St: s.up.St,
			Root: [2]int64{0, s.up.St.Value}, Split: coloringSplit,
		}
	}
	if s.dn.Feed(sc) {
		sc.Done()
	}
}

// castRun runs node i as tree role roles[i] with value values[i] (see
// castStepper) and returns each node's up-pass state and, with down, its
// own interval and whether it obtained one, plus the run's slot count.
func castRun(t *testing.T, e *sim.Engine, cfg CastConfig, roles []int, values []int64, op agg.Op, down bool) (ups []CastState, selves [][2]int64, oks []bool, slots int) {
	t.Helper()
	nodes := make([]castStepper, len(roles))
	steppers := make([]sim.Stepper, len(roles))
	for i := range nodes {
		nodes[i] = castStepper{cfg: cfg, role: roles[i], down: down,
			up: CastUpFrag{Cfg: cfg, Role: roles[i], Value: values[i], Op: op}}
		steppers[i] = &nodes[i]
	}
	slots, err := e.Run(steppers)
	if err != nil {
		t.Fatal(err)
	}
	ups = make([]CastState, len(roles))
	selves = make([][2]int64, len(roles))
	oks = make([]bool, len(roles))
	for i, nd := range nodes {
		if nd.role >= 0 {
			ups[i] = nd.up.St
		}
		if nd.dn != nil {
			selves[i], oks[i] = nd.dn.Self, nd.dn.Ok
		}
	}
	return ups, selves, oks, slots
}

// runCast executes an up pass with the given role assignment (node i plays
// roles[i]; -1 is a bystander) and per-node values, and returns the states.
func runCast(t *testing.T, roles []int, values []int64, channels int, op agg.Op, seed uint64) []CastState {
	t.Helper()
	f, _ := clusterField(len(roles), channels, 0.05, int64(seed))
	ups, _, _, _ := castRun(t, sim.NewEngine(f, seed), DefaultCastConfig(channels, 0.14), roles, values, op, false)
	return ups
}

func TestCastUpFullTree(t *testing.T) {
	// Roles 0..4 over F=4 channels: full heap 1..4 plus dominator.
	roles := []int{0, 1, 2, 3, 4}
	values := []int64{100, 1, 2, 3, 4}
	states := runCast(t, roles, values, 4, agg.Sum, 11)
	if got := states[0].Value; got != 110 {
		t.Errorf("root value = %d, want 110", got)
	}
	// Role 1 delivered to the dominator; role 4 to role 2; etc.
	if states[1].DeliveredAs != 1 || states[4].DeliveredAs != 4 {
		t.Errorf("delivery roles: %d, %d", states[1].DeliveredAs, states[4].DeliveredAs)
	}
	if !states[0].ChildSeen[0][1] {
		t.Error("dominator did not record role 1")
	}
	if !states[2].ChildSeen[2][0] {
		t.Error("role 2 did not record its left child 4")
	}
}

func TestCastUpMissingMidRole(t *testing.T) {
	// Role 2 absent: role 4 (its left child) must stand in and deliver both
	// its value and the takeover to role 1.
	roles := []int{0, 1, -1, 3, 4}
	values := []int64{0, 1, 0, 3, 4}
	states := runCast(t, roles, values, 4, agg.Sum, 13)
	if got := states[0].Value; got != 8 {
		t.Errorf("root value = %d, want 8 (role 2's value lost with the node)", got)
	}
	// Node 4's chain should show the takeover of role 2.
	if len(states[4].Chain) != 2 || states[4].Chain[1] != 2 {
		t.Errorf("node 4 chain = %v, want [4 2]", states[4].Chain)
	}
	if states[4].DeliveredAs != 2 {
		t.Errorf("node 4 delivered as %d, want 2", states[4].DeliveredAs)
	}
}

func TestCastUpMissingRole1(t *testing.T) {
	// Role 1 absent: role 2 stands in, absorbing sibling 3, and delivers to
	// the dominator as role 1.
	roles := []int{0, -1, 2, 3}
	values := []int64{0, 0, 20, 30}
	states := runCast(t, roles, values, 4, agg.Sum, 17)
	if got := states[0].Value; got != 50 {
		t.Errorf("root value = %d, want 50", got)
	}
	if states[2].DeliveredAs != 1 {
		t.Errorf("node 2 delivered as %d, want 1", states[2].DeliveredAs)
	}
	if states[3].DeliveredAs != 3 {
		t.Errorf("node 3 delivered as %d, want 3 (acked by the stand-in)", states[3].DeliveredAs)
	}
}

func TestCastUpOnlyRightLeaf(t *testing.T) {
	// Roles 0, 3 only: role 3 is a right child whose parent (1) and sibling
	// (2) are absent; it must cascade takeovers all the way to role 1.
	roles := []int{0, -1, -1, 3}
	values := []int64{0, 0, 0, 7}
	states := runCast(t, roles, values, 4, agg.Sum, 19)
	if got := states[0].Value; got != 7 {
		t.Errorf("root value = %d, want 7", got)
	}
	if states[3].DeliveredAs != 1 {
		t.Errorf("node 3 delivered as %d, want 1", states[3].DeliveredAs)
	}
}

func TestCastUpEightChannels(t *testing.T) {
	// Full tree on F=8: roles 1..8, three levels.
	roles := make([]int, 9)
	values := make([]int64, 9)
	var want int64
	for i := range roles {
		roles[i] = i
		values[i] = int64(i * 10)
		want += values[i]
	}
	states := runCast(t, roles, values, 8, agg.Sum, 23)
	if got := states[0].Value; got != want {
		t.Errorf("root value = %d, want %d", got, want)
	}
}

// coloringSplit mimics the Sec. 7 range distribution: at a node's base role
// it consumes one unit of the interval for itself, then the left child
// subtree gets the next cv[0] units and the right child the cv[1] after
// that. The dominator (role 0) consumes nothing.
func coloringSplit(j int, base bool, payload [2]int64, cv [2]int64, cs [2]bool) (self, left, right [2]int64) {
	lo := payload[0]
	if base && j != 0 {
		self = [2]int64{lo, 1}
		lo++
	}
	if cs[0] {
		left = [2]int64{lo, cv[0]}
		lo += cv[0]
	}
	if cs[1] {
		right = [2]int64{lo, cv[1]}
	}
	return self, left, right
}

func TestCastDownDistributesDisjointRanges(t *testing.T) {
	// Up pass with value 1 per reporter (subtree counts), then down pass
	// dividing [0, total) among reporters; ranges must be disjoint, sized 1
	// each here, and within bounds.
	roles := []int{0, 1, 2, 3, 4, 5}
	values := []int64{0, 1, 1, 1, 1, 1}
	channels := 5
	f, _ := clusterField(len(roles), channels, 0.05, 31)
	cfg := DefaultCastConfig(channels, 0.14)
	e := sim.NewEngine(f, 31)
	states, payloads, oks, _ := castRun(t, e, cfg, roles, values, agg.Sum, true)
	if states[0].Value != 5 {
		t.Fatalf("root total = %d, want 5", states[0].Value)
	}
	// Each reporter's interval starts at a distinct offset in [0, 5); its
	// own color is payload[0] and its subtree size is payload[1].
	seen := map[int64]bool{}
	for i := 1; i < len(roles); i++ {
		if !oks[i] {
			t.Errorf("role %d got no payload", roles[i])
			continue
		}
		start := payloads[i][0]
		if start < 0 || start >= 5 {
			t.Errorf("role %d start %d out of range", roles[i], start)
		}
		if seen[start] {
			t.Errorf("role %d start %d duplicated", roles[i], start)
		}
		seen[start] = true
	}
}

func TestCastDownWithTakeover(t *testing.T) {
	// Role 2 missing: node with role 4 stands in; the down pass must still
	// deliver role 4 a payload through its own takeover chain.
	roles := []int{0, 1, -1, 3, 4}
	values := []int64{0, 1, 0, 1, 1}
	channels := 4
	f, _ := clusterField(len(roles), channels, 0.05, 37)
	cfg := DefaultCastConfig(channels, 0.14)
	e := sim.NewEngine(f, 37)
	states, payloads, oks, _ := castRun(t, e, cfg, roles, values, agg.Sum, true)
	if states[0].Value != 3 {
		t.Fatalf("root total = %d, want 3", states[0].Value)
	}
	for _, i := range []int{1, 3, 4} {
		if !oks[i] {
			t.Errorf("node %d (role %d) got no payload", i, roles[i])
		}
	}
	starts := map[int64]bool{}
	for _, i := range []int{1, 3, 4} {
		if starts[payloads[i][0]] {
			t.Errorf("duplicate start %d", payloads[i][0])
		}
		starts[payloads[i][0]] = true
	}
}

func TestCastSlotBudget(t *testing.T) {
	p := model.Default(4, 64)
	cfg := DefaultCastConfig(4, 0.14)
	pos := []geo.Point{{X: 0}, {X: 0.02}}
	e := sim.NewEngine(phy.NewField(p, pos), 2)
	after := make([]int, 2)
	if _, err := e.Run([]sim.Stepper{
		&sim.FragStepper{Frag: &CastUpFrag{Cfg: cfg, Value: 1, Op: agg.Sum}, Finish: func(sc *sim.StepCtx) { after[0] = sc.Slot() }},
		&sim.FragStepper{Frag: &sim.IdleFrag{K: cfg.SlotBudget()}, Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() }},
	}); err != nil {
		t.Fatal(err)
	}
	if after[0] != cfg.SlotBudget() || after[1] != cfg.SlotBudget() {
		t.Errorf("budgets %v, want %d", after, cfg.SlotBudget())
	}
}

func TestLevelOf(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4}
	for k, want := range cases {
		if got := levelOf(k); got != want {
			t.Errorf("levelOf(%d) = %d, want %d", k, got, want)
		}
	}
}
