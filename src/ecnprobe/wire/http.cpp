#include "ecnprobe/wire/http.hpp"

#include <algorithm>

#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::wire {

bool CaseInsensitiveLess::operator()(const std::string& a, const std::string& b) const {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
        return std::tolower(static_cast<unsigned char>(x)) <
               std::tolower(static_cast<unsigned char>(y));
      });
}

std::string HttpRequest::serialize() const {
  std::string out = method + " " + target + " " + version + "\r\n";
  HttpHeaders h = headers;
  if (!body.empty() && !h.contains("Content-Length")) {
    h["Content-Length"] = std::to_string(body.size());
  }
  for (const auto& [name, value] : h) out += name + ": " + value + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}

std::string HttpResponse::serialize() const {
  std::string out = version + " " + std::to_string(status) + " " + reason + "\r\n";
  HttpHeaders h = headers;
  if (!body.empty() && !h.contains("Content-Length")) {
    h["Content-Length"] = std::to_string(body.size());
  }
  for (const auto& [name, value] : h) out += name + ": " + value + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}

bool HttpParser::feed(std::span<const std::uint8_t> bytes) {
  if (failed_) return false;
  buffer_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  try_parse();
  return !failed_;
}

bool HttpParser::feed(std::string_view text) {
  return feed(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void HttpParser::try_parse() {
  if (complete_ || failed_) return;
  if (!head_done_) {
    const std::size_t end = buffer_.find("\r\n\r\n");
    if (end == std::string::npos) {
      if (buffer_.size() > 64 * 1024) {
        failed_ = true;
        error_ = "head over 64KiB";
      }
      return;
    }
    if (!parse_head(std::string_view(buffer_).substr(0, end))) {
      failed_ = true;
      return;
    }
    buffer_.erase(0, end + 4);
    head_done_ = true;
    const HttpHeaders& headers =
        kind_ == Kind::Request ? request_.headers : response_.headers;
    const auto it = headers.find("Content-Length");
    if (it == headers.end()) {
      // No length. A request without one has no body in this subset; a
      // response's HTTP/1.0 body runs to connection close and we treat the
      // head as the completion point (the probe only needs the status line).
      complete_ = true;
      return;
    }
    // RFC 9110: digits only, so no sign, no space and no hex.
    const auto len = util::parse_integer<std::size_t>(it->second);
    if (!len) {
      failed_ = true;
      error_ = "bad Content-Length";
      return;
    }
    body_needed_ = *len;
  }
  if (head_done_ && !complete_) {
    if (buffer_.size() >= body_needed_) {
      std::string& body = kind_ == Kind::Request ? request_.body : response_.body;
      body = buffer_.substr(0, body_needed_);
      complete_ = true;
    }
  }
}

bool HttpParser::parse_head(std::string_view head) {
  const auto lines = util::split_views(head, '\n');
  if (lines.empty()) {
    error_ = "empty head";
    return false;
  }
  const auto strip_cr = [](std::string_view s) {
    if (!s.empty() && s.back() == '\r') s.remove_suffix(1);
    return s;
  };
  const std::string_view start_line = strip_cr(lines[0]);
  const auto parts = util::split_views(start_line, ' ');
  if (kind_ == Kind::Request) {
    if (parts.size() != 3) {
      error_ = "malformed request line";
      return false;
    }
    request_.method = parts[0];
    request_.target = parts[1];
    request_.version = parts[2];
    if (!util::istarts_with(request_.version, "HTTP/")) {
      error_ = "bad version token";
      return false;
    }
  } else {
    if (parts.size() < 2 || !util::istarts_with(parts[0], "HTTP/")) {
      error_ = "malformed status line";
      return false;
    }
    response_.version = parts[0];
    const auto status = util::parse_integer<int>(parts[1]);
    if (!status || *status < 100 || *status > 599) {
      error_ = "bad status code";
      return false;
    }
    response_.status = *status;
    response_.reason.clear();
    for (std::size_t i = 2; i < parts.size(); ++i) {
      if (i > 2) response_.reason += ' ';
      response_.reason += parts[i];
    }
  }
  HttpHeaders& headers = kind_ == Kind::Request ? request_.headers : response_.headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = strip_cr(lines[i]);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      error_ = "header line without colon";
      return false;
    }
    headers[std::string(util::trim(line.substr(0, colon)))] =
        std::string(util::trim(line.substr(colon + 1)));
  }
  return true;
}

}  // namespace ecnprobe::wire
