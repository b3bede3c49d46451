//! Generic convex-polygon wrap paths.
//!
//! The 3-D elevation extension (§7 of the paper) reduces ellipsoid
//! geodesics to 2-D wrap paths inside plane cross-sections; those
//! cross-sections are arbitrary convex polygons rather than the
//! two-half-ellipse of [`crate::head`], so the taut-string machinery is
//! provided here in polygon-generic form with exact (clipping-based)
//! segment visibility.

use crate::vec2::Vec2;

/// A convex polygon with precomputed cumulative arc lengths.
#[derive(Debug, Clone)]
pub struct ConvexPolygon {
    verts: Vec<Vec2>,
    cum: Vec<f64>,
}

/// A wrap path around a [`ConvexPolygon`].
#[derive(Debug, Clone, Copy)]
pub struct PolyPath {
    /// Total length (straight segment + arc).
    pub length: f64,
    /// Turning angle along the wrapped arc, radians (0 when direct).
    pub wrap_angle: f64,
    /// Whether the target vertex was directly visible.
    pub direct: bool,
}

impl ConvexPolygon {
    /// Builds a polygon from counter-clockwise vertices.
    ///
    /// # Panics
    /// Panics with fewer than 8 vertices or if the vertices are not
    /// (weakly) convex counter-clockwise.
    pub fn new(verts: Vec<Vec2>) -> Self {
        let n = verts.len();
        assert!(n >= 8, "polygon needs at least 8 vertices, got {n}");
        for k in 0..n {
            let a = verts[k];
            let b = verts[(k + 1) % n];
            let c = verts[(k + 2) % n];
            let cross = (b - a).cross(c - b);
            assert!(
                cross > -1e-12,
                "vertices not convex counter-clockwise at index {k}"
            );
        }
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0);
        for k in 0..n {
            let next = verts[(k + 1) % n];
            cum.push(cum[k] + verts[k].dist(next));
        }
        ConvexPolygon { verts, cum }
    }

    /// The vertices.
    pub fn vertices(&self) -> &[Vec2] {
        &self.verts
    }

    /// Vertex count.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Never true after construction; for API completeness.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Perimeter length.
    #[expect(
        clippy::expect_used,
        reason = "the constructor rejects polygons with fewer than 3 vertices, so cum is never empty"
    )]
    pub fn perimeter(&self) -> f64 {
        *self.cum.last().expect("non-empty")
    }

    /// Counter-clockwise arc length from vertex `i` to vertex `j`.
    pub fn arc_ccw(&self, i: usize, j: usize) -> f64 {
        let n = self.verts.len();
        let (i, j) = (i % n, j % n);
        if j >= i {
            self.cum[j] - self.cum[i]
        } else {
            self.perimeter() - (self.cum[i] - self.cum[j])
        }
    }

    /// `true` when `p` is strictly inside.
    pub fn contains(&self, p: Vec2) -> bool {
        let n = self.verts.len();
        (0..n).all(|k| {
            let a = self.verts[k];
            let b = self.verts[(k + 1) % n];
            (b - a).cross(p - a) > 1e-12
        })
    }

    /// `true` when the open segment `p`–`q` avoids the interior (endpoints
    /// may touch the boundary). Exact: clips the segment against every
    /// edge half-plane and checks whether a positive-length sub-interval
    /// lies strictly inside.
    pub fn segment_clear(&self, p: Vec2, q: Vec2) -> bool {
        let n = self.verts.len();
        let d = q - p;
        let (mut lo, mut hi): (f64, f64) = (1e-9, 1.0 - 1e-9);
        for k in 0..n {
            let a = self.verts[k];
            let b = self.verts[(k + 1) % n];
            let edge = b - a;
            // Inside condition: edge × (x(t) − a) > 0 where x(t) = p + t·d.
            let f0 = edge.cross(p - a);
            let f1 = edge.cross(d); // slope in t
            if f1.abs() < 1e-300 {
                if f0 <= 1e-12 {
                    return true; // entirely outside this half-plane
                }
                continue;
            }
            let t_zero = -f0 / f1;
            if f1 > 0.0 {
                lo = lo.max(t_zero);
            } else {
                hi = hi.min(t_zero);
            }
            if lo >= hi {
                return true;
            }
        }
        // A strictly interior interval remains → blocked. Guard against
        // grazing (zero-depth) contact: check the midpoint is truly inside.
        let mid = p + d * ((lo + hi) / 2.0);
        !self.contains(mid)
    }

    /// Shortest taut-string path from external point `src` to boundary
    /// vertex `target_idx`. Returns `None` if `src` is strictly inside.
    pub fn wrap_to_vertex(&self, src: Vec2, target_idx: usize) -> Option<PolyPath> {
        if self.contains(src) {
            return None;
        }
        let n = self.verts.len();
        let target_idx = target_idx % n;
        let target = self.verts[target_idx];

        if self.segment_clear(src, target) {
            return Some(PolyPath {
                length: src.dist(target),
                wrap_angle: 0.0,
                direct: true,
            });
        }

        // Tangent vertices: angular extremes as seen from src, measured
        // against the direction to the centroid.
        let centroid = self.verts.iter().fold(Vec2::ZERO, |acc, &v| acc + v) / n as f64;
        let base = (centroid - src).angle();
        let signed = |v: Vec2| -> f64 {
            let mut a = ((v - src).angle() - base).rem_euclid(std::f64::consts::TAU);
            if a > std::f64::consts::PI {
                a -= std::f64::consts::TAU;
            }
            a
        };
        let (mut t_min, mut t_max) = (0usize, 0usize);
        let (mut a_min, mut a_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (k, &v) in self.verts.iter().enumerate() {
            let a = signed(v);
            if a < a_min {
                a_min = a;
                t_min = k;
            }
            if a > a_max {
                a_max = a;
                t_max = k;
            }
        }

        let mut best: Option<(f64, usize, bool)> = None;
        for &t in &[t_min, t_max] {
            let seg = src.dist(self.verts[t]);
            for ccw in [true, false] {
                let arc = if ccw {
                    self.arc_ccw(t, target_idx)
                } else {
                    self.arc_ccw(target_idx, t)
                };
                let total = seg + arc;
                if best.is_none_or(|(l, _, _)| total < l) {
                    best = Some((total, t, ccw));
                }
            }
        }
        // Two tangent candidates are always evaluated above, so `best`
        // is necessarily `Some`; `?` keeps the path panic-free anyway.
        let (length, t_idx, ccw) = best?;
        Some(PolyPath {
            length,
            wrap_angle: self.turning(t_idx, target_idx, ccw),
            direct: false,
        })
    }

    fn turning(&self, i: usize, j: usize, ccw: bool) -> f64 {
        let n = self.verts.len();
        let step = |k: usize| if ccw { (k + 1) % n } else { (k + n - 1) % n };
        let mut total = 0.0;
        let mut k = i;
        let mut prev: Option<Vec2> = None;
        for _ in 0..n {
            if k == j {
                break;
            }
            let nk = step(k);
            let dir = (self.verts[nk] - self.verts[k]).normalized();
            if let Some(p) = prev {
                total += p.cross(dir).clamp(-1.0, 1.0).asin().abs();
            }
            prev = Some(dir);
            k = nk;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn circle(n: usize, r: f64) -> ConvexPolygon {
        ConvexPolygon::new(
            (0..n)
                .map(|k| {
                    let t = TAU * k as f64 / n as f64;
                    Vec2::new(r * t.cos(), r * t.sin())
                })
                .collect(),
        )
    }

    #[test]
    fn contains_center_not_outside() {
        let p = circle(64, 1.0);
        assert!(p.contains(Vec2::ZERO));
        assert!(!p.contains(Vec2::new(2.0, 0.0)));
    }

    #[test]
    fn perimeter_of_circle() {
        let p = circle(1024, 1.0);
        assert!((p.perimeter() - TAU).abs() < 1e-3);
    }

    #[test]
    fn segment_clear_cases() {
        let p = circle(256, 1.0);
        // Through the middle: blocked.
        assert!(!p.segment_clear(Vec2::new(-2.0, 0.0), Vec2::new(2.0, 0.0)));
        // Passing well outside: clear.
        assert!(p.segment_clear(Vec2::new(-2.0, 1.5), Vec2::new(2.0, 1.5)));
        // To a boundary vertex from outside on the same side: clear.
        assert!(p.segment_clear(Vec2::new(2.0, 0.0), p.vertices()[0]));
    }

    #[test]
    fn wrap_matches_circle_closed_form() {
        let r = 1.0;
        let p = circle(2048, r);
        // Source on +x at distance d, target = vertex at angle π (−x).
        let d = 3.0;
        let src = Vec2::new(d, 0.0);
        let target_idx = 1024; // angle π
        let path = p.wrap_to_vertex(src, target_idx).unwrap();
        assert!(!path.direct);
        let tangent = (d * d - r * r).sqrt();
        let beta = (r / d).acos();
        let expect = tangent + r * (std::f64::consts::PI - beta);
        assert!(
            (path.length - expect).abs() < 2e-3,
            "{} vs {expect}",
            path.length
        );
    }

    #[test]
    fn direct_when_visible() {
        let p = circle(256, 1.0);
        let src = Vec2::new(3.0, 0.0);
        let path = p.wrap_to_vertex(src, 0).unwrap();
        assert!(path.direct);
        assert!((path.length - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inside_source_rejected() {
        let p = circle(64, 1.0);
        assert!(p.wrap_to_vertex(Vec2::new(0.1, 0.1), 0).is_none());
    }

    #[test]
    #[should_panic(expected = "not convex")]
    fn concave_rejected() {
        let mut verts: Vec<Vec2> = (0..16)
            .map(|k| {
                let t = TAU * k as f64 / 16.0;
                Vec2::new(t.cos(), t.sin())
            })
            .collect();
        verts[3] = Vec2::new(0.1, 0.1); // dent
        ConvexPolygon::new(verts);
    }
}
