//! The cops-and-robber characterization of treedepth.
//!
//! Lemma 7.3's proof uses the game of Gruber–Holzer \[33]: immobile cops
//! are placed one at a time; before each placement the robber learns the
//! announced position and may move along any cop-free path; the game ends
//! when a cop lands on the robber's vertex and the robber cannot move.
//! The minimum number of cops that guarantees capture equals the treedepth
//! (vertex-count convention).
//!
//! This module provides:
//!
//! - [`cop_number`]: the optimal game value, computed over robber
//!   territories (connected cop-free regions);
//! - [`Game`]: a playable step-by-step engine used to *replay* the explicit
//!   strategies of Figure 4 (cop on the apex, two opposite cops on the
//!   robber's cycle, binary search on the remaining path);
//! - an optimal cop strategy extractor and a best-escape robber.

use locert_graph::{Graph, NodeId};
use std::collections::HashMap;

/// Maximum vertex count for the exact game solver.
pub const GAME_LIMIT: usize = 28;

/// The minimum number of cops that capture the robber on `g`.
///
/// Equals the treedepth of `g` (Gruber–Holzer). The game value on a
/// territory `T` (a connected cop-free region the robber occupies) is
/// `1 + min_v max over components C of T − v (value(C))`, because after a
/// cop is announced on `v` the robber commits to one component of `T − v`.
///
/// # Panics
///
/// Panics if `g` is empty or exceeds [`GAME_LIMIT`] vertices.
pub fn cop_number(g: &Graph) -> usize {
    let n = g.num_nodes();
    assert!(
        (1..=GAME_LIMIT).contains(&n),
        "game solver size out of range"
    );
    let _span = locert_trace::span!("treedepth.cops.cop_number");
    let mut memo = HashMap::new();
    let full = (1u64 << n) - 1;
    let k = components_of(g, full)
        .into_iter()
        .map(|c| value(g, c, &mut memo))
        .max()
        .unwrap_or(0);
    locert_trace::add("treedepth.cops.games_solved", 1);
    locert_trace::add("treedepth.cops.territories_evaluated", memo.len() as u64);
    k
}

fn components_of(g: &Graph, mask: u64) -> Vec<u64> {
    let mut comps = Vec::new();
    let mut left = mask;
    while left != 0 {
        let start = left.trailing_zeros() as usize;
        let mut comp = 1u64 << start;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(NodeId(u)) {
                let bit = 1u64 << v.0;
                if mask & bit != 0 && comp & bit == 0 {
                    comp |= bit;
                    stack.push(v.0);
                }
            }
        }
        comps.push(comp);
        left &= !comp;
    }
    comps
}

fn value(g: &Graph, territory: u64, memo: &mut HashMap<u64, usize>) -> usize {
    let count = territory.count_ones() as usize;
    if count <= 1 {
        return count;
    }
    if let Some(&hit) = memo.get(&territory) {
        return hit;
    }
    let mut best = count;
    let mut m = territory;
    while m != 0 {
        let v = m.trailing_zeros() as usize;
        m &= m - 1;
        let rest = territory & !(1u64 << v);
        let mut worst = 0usize;
        for comp in components_of(g, rest) {
            if worst + 1 >= best {
                break;
            }
            worst = worst.max(value(g, comp, memo));
        }
        best = best.min(1 + worst);
    }
    memo.insert(territory, best);
    best
}

/// One step of the game from the cops' side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The robber was caught (cop placed on its vertex, no escape).
    Caught {
        /// Total cops used, including the final one.
        cops_used: usize,
    },
    /// The game continues.
    Ongoing,
}

/// A playable cops-and-robber game on a graph.
///
/// The engine enforces the protocol of \[33]: the next cop position is
/// *announced*, the robber moves along a cop-free path (possibly staying),
/// then the cop lands.
#[derive(Debug, Clone)]
pub struct Game<'g> {
    g: &'g Graph,
    cops: Vec<NodeId>,
    robber: NodeId,
}

impl<'g> Game<'g> {
    /// Starts a game with the robber at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn new(g: &'g Graph, start: NodeId) -> Self {
        assert!(start.0 < g.num_nodes(), "robber start out of range");
        Game {
            g,
            cops: Vec::new(),
            robber: start,
        }
    }

    /// Current robber position.
    pub fn robber(&self) -> NodeId {
        self.robber
    }

    /// Cops placed so far.
    pub fn cops(&self) -> &[NodeId] {
        &self.cops
    }

    /// The robber's current territory: the connected cop-free region
    /// containing the robber (as a bitmask).
    pub fn territory(&self) -> u64 {
        let mut mask = (1u64 << self.g.num_nodes()) - 1;
        for &c in &self.cops {
            mask &= !(1u64 << c.0);
        }
        components_of(self.g, mask)
            .into_iter()
            .find(|c| c & (1u64 << self.robber.0) != 0)
            .expect("robber stands in a cop-free vertex")
    }

    /// Announces a cop at `pos`, lets `robber_strategy` choose a new
    /// position within the current territory, then places the cop.
    ///
    /// # Panics
    ///
    /// Panics if `pos` already hosts a cop or the robber strategy moves
    /// outside its territory.
    pub fn place_cop<F>(&mut self, pos: NodeId, mut robber_strategy: F) -> Outcome
    where
        F: FnMut(&Game<'_>, NodeId) -> NodeId,
    {
        assert!(!self.cops.contains(&pos), "cop already placed at {pos}");
        let territory = self.territory();
        let answer = robber_strategy(self, pos);
        assert!(
            territory & (1u64 << answer.0) != 0,
            "robber must stay within its territory"
        );
        self.robber = answer;
        self.cops.push(pos);
        if self.robber == pos {
            // Caught only if the robber also cannot move now.
            let mut mask = (1u64 << self.g.num_nodes()) - 1;
            for &c in &self.cops {
                mask &= !(1u64 << c.0);
            }
            let escape = self
                .g
                .neighbors(self.robber)
                .iter()
                .any(|&v| mask & (1u64 << v.0) != 0);
            if !escape {
                return Outcome::Caught {
                    cops_used: self.cops.len(),
                };
            }
            // Robber slips to any free neighbor.
            let v = self
                .g
                .neighbors(self.robber)
                .iter()
                .copied()
                .find(|&v| mask & (1u64 << v.0) != 0)
                .expect("escape exists");
            self.robber = v;
        }
        Outcome::Ongoing
    }
}

/// The *best-escape* robber: on each announcement, moves to a vertex of
/// the component (after the announced cop lands) with the highest game
/// value. Use with [`Game::place_cop`].
pub fn best_escape_robber(g: &Graph) -> impl FnMut(&Game<'_>, NodeId) -> NodeId + '_ {
    let mut memo: HashMap<u64, usize> = HashMap::new();
    move |game, announced| {
        let territory = game.territory();
        let after = territory & !(1u64 << announced.0);
        let comps = components_of(g, after);
        comps
            .into_iter()
            .max_by_key(|&c| value(g, c, &mut memo))
            .map(|c| NodeId(c.trailing_zeros() as usize))
            // Nowhere to go: stand still and be caught.
            .unwrap_or(game.robber())
    }
}

/// Plays the optimal cop strategy against `robber_strategy` and returns
/// the number of cops used to capture.
///
/// # Panics
///
/// Panics if `g` exceeds [`GAME_LIMIT`].
pub fn play_optimal_cops<F>(g: &Graph, start: NodeId, mut robber_strategy: F) -> usize
where
    F: FnMut(&Game<'_>, NodeId) -> NodeId,
{
    assert!(g.num_nodes() <= GAME_LIMIT);
    let _span = locert_trace::span!("treedepth.cops.play_optimal");
    let mut memo = HashMap::new();
    let mut game = Game::new(g, start);
    loop {
        locert_trace::add("treedepth.cops.moves_played", 1);
        let territory = game.territory();
        // Optimal announcement: vertex minimizing 1 + max component value.
        let mut best_v = None;
        let mut best_val = usize::MAX;
        let mut m = territory;
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            let rest = territory & !(1u64 << v);
            let worst = components_of(g, rest)
                .into_iter()
                .map(|c| value(g, c, &mut memo))
                .max()
                .unwrap_or(0);
            if 1 + worst < best_val {
                best_val = 1 + worst;
                best_v = Some(NodeId(v));
            }
        }
        let v = best_v.expect("territory is non-empty");
        if let Outcome::Caught { cops_used } = game.place_cop(v, &mut robber_strategy) {
            return cops_used;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::treedepth_exact;
    use locert_graph::generators;

    #[test]
    fn cop_number_equals_treedepth() {
        let graphs = [
            generators::path(7),
            generators::path(8),
            generators::cycle(5),
            generators::cycle(8),
            generators::clique(4),
            generators::star(6),
            generators::spider(3, 2),
            generators::complete_kary_tree(2, 2),
        ];
        for g in &graphs {
            assert_eq!(cop_number(g), treedepth_exact(g), "graph {g:?}");
        }
    }

    #[test]
    fn cop_number_random_cross_check() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let g = generators::random_connected(9, 4, &mut rng);
            assert_eq!(cop_number(&g), treedepth_exact(&g));
        }
    }

    #[test]
    fn optimal_cops_capture_best_escaper_within_treedepth() {
        for g in [
            generators::path(7),
            generators::cycle(8),
            generators::star(5),
        ] {
            let td = treedepth_exact(&g);
            let used = play_optimal_cops(&g, NodeId(0), best_escape_robber(&g));
            assert!(used <= td, "used {used} > td {td}");
        }
    }

    #[test]
    fn single_vertex_game() {
        let g = Graph::empty(1);
        assert_eq!(cop_number(&g), 1);
        let used = play_optimal_cops(&g, NodeId(0), best_escape_robber(&g));
        assert_eq!(used, 1);
    }

    #[test]
    fn figure4_strategy_on_cycle8() {
        // Figure 4 replays the 4-cop capture on a single C_8 (the gadget
        // adds the apex for the 5th): opposite vertices, then binary
        // search. td(C_8) = 4.
        let g = generators::cycle(8);
        let mut game = Game::new(&g, NodeId(1));
        let robber = |game: &Game<'_>, announced: NodeId| {
            // A simple evasive robber: stay if safe, else move to the
            // farthest free vertex of the post-placement component.
            let territory = game.territory();
            let after = territory & !(1u64 << announced.0);
            if after & (1u64 << game.robber().0) != 0 {
                game.robber()
            } else {
                components_of(&g, after)
                    .into_iter()
                    .max_by_key(|c| c.count_ones())
                    .map(|c| NodeId(63 - c.leading_zeros() as usize))
                    .unwrap_or(game.robber())
            }
        };
        // Cops at 0 and 4 (opposite), robber confined to a 3-path.
        assert_eq!(game.place_cop(NodeId(0), robber), Outcome::Ongoing);
        assert_eq!(game.place_cop(NodeId(4), robber), Outcome::Ongoing);
        // Robber is in {1,2,3} or {5,6,7}; binary search that path.
        let r = game.robber().0;
        let (mid, ends) = if (1..=3).contains(&r) {
            (2, [1usize, 3])
        } else {
            (6, [5usize, 7])
        };
        assert_eq!(game.place_cop(NodeId(mid), robber), Outcome::Ongoing);
        let r = game.robber().0;
        assert!(ends.contains(&r));
        let out = game.place_cop(NodeId(r), robber);
        assert_eq!(out, Outcome::Caught { cops_used: 4 });
    }
}
